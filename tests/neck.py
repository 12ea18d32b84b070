"""The neck conductance integral J(delta) in closed form: a test oracle.

    J(delta) = integral over the neck window of (delta + |x|^2/R)^(1-p),

taken over x in [-w, w] for d = 2 and over the disk |x| <= w for d = 3.
With x = sqrt(R*delta) t and T^2 = w^2/(R*delta),

    d = 3:  J = pi*R*delta^(2-p) * (1 - (1+T^2)^(2-p)) / (p-2)
              (pi*R*log(1+T^2) at p = 2),
    d = 2:  J = sqrt(R*delta)*delta^(1-p) * B(1/2, p-3/2)
              * I_{1/(1+T^2)}^c(p-3/2, 1/2),

the second by s = t^2/(1+t^2), with B the beta function and I^c the
complement of the regularized incomplete beta function.  As delta -> 0
the last factor tends to 1 in d = 2 and (1+T^2)^(2-p) to 0 in d = 3, which
gives the limit constant C_o of `gaplaw.asymptotics.c_o_quadrature`.
The package computes that limit with `math.gamma`; this oracle takes
both beta functions from `scipy.special`, so the two are independent.
Acceptance criterion 2 fits the blow-up exponent gamma to the slope of J
down a delta ladder.
"""

from __future__ import annotations

import math

from scipy.special import beta, betaincc


def neck_integral(delta: float, w: float, R: float, p: float, d: int) -> float:
    """Neck conductance integral at gap delta and window half-width w.

    d = 2: integral_{-w}^{w} (delta + x^2/R)^(1-p) dx.
    d = 3: 2*pi * integral_0^w r (delta + r^2/R)^(1-p) dr.

    Evaluated in closed form (module docstring): log1p/expm1 in d = 3,
    the complementary incomplete beta function at 1/(1+T^2) in d = 2, so
    nothing cancels for any delta > 0.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not 0.0 < w:
        raise ValueError(f"window half-width must be positive, got {w}")
    if R <= 0.0:
        raise ValueError(f"R must be positive, got {R}")
    if p < 2.0:
        raise ValueError(f"p must be >= 2, got {p}")
    if d not in (2, 3):
        raise ValueError(f"d must be 2 or 3, got {d}")

    T2 = w * w / (R * delta)
    if d == 2:
        a = p - 1.5
        return float(math.sqrt(R * delta) * delta ** (1.0 - p)
                     * beta(0.5, a) * betaincc(a, 0.5, 1.0 / (1.0 + T2)))
    L = math.log1p(T2)
    if p == 2.0:
        return math.pi * R * L
    return math.pi * R * delta ** (2.0 - p) * -math.expm1((2.0 - p) * L) / (p - 2.0)
