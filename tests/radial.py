"""Radial p-harmonic profiles and the scalar lower barrier: test oracles.

A radial profile

    psi(r) = a * r^beta + b,   beta = (p - d)/(p - 1)      (power branch)
    psi(r) = a * log(r) + b                                 (log branch, d = p)

solves div(|grad psi|^(p-2) grad psi) = 0 away from its center, for any
amplitude a and offset b.  Fitted through two radii it is the exact
solution of the prescribed problem on an annulus (criterion 4), and the
comparison function behind the neck flux sandwich of
`gaplaw.geometry.barrier_flux_bound`.

`lower_barrier_radii` evaluates the lower-barrier formula of
`gaplaw.geometry.lower_barrier_outer_radius` again, one offset at a time
with `math.sqrt`: it raises where the lower barrier does not exist
instead of returning a validity mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from gaplaw.geometry import GeometryError, ParticlePair

Branch = Literal["power", "log"]


class RadialDomainError(ValueError):
    """Raised for nonpositive radii or degenerate fit intervals."""


def beta_exponent(p: float, d: int) -> float:
    """Power-branch exponent (p - d)/(p - 1)."""
    return (p - d) / (p - 1.0)


@dataclass(frozen=True)
class RadialProfile:
    """Parameters of a radial p-harmonic solution centered at `center`.

    The branch is `log` exactly when d == p, otherwise `power` with
    exponent beta = (p - d)/(p - 1).
    """

    a: float
    b: float
    p: float
    d: int
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.p < 2.0:
            raise RadialDomainError(f"exponent p={self.p} must be >= 2")
        if self.d not in (2, 3):
            raise RadialDomainError(f"dimension d={self.d} must be 2 or 3")

    @property
    def branch(self) -> Branch:
        return "log" if self.d == self.p else "power"

    @property
    def beta(self) -> float:
        return beta_exponent(self.p, self.d)


def radial_eval(profile: RadialProfile, r: float) -> float:
    """Evaluate the profile at radius r > 0."""
    if r <= 0.0:
        raise RadialDomainError(f"radius must be positive, got {r}")
    if profile.branch == "log":
        return profile.a * math.log(r) + profile.b
    return profile.a * r**profile.beta + profile.b


def radial_gradient(profile: RadialProfile, r: float) -> float:
    """Radial derivative d(psi)/dr at radius r > 0 (increasing-r sign)."""
    if r <= 0.0:
        raise RadialDomainError(f"radius must be positive, got {r}")
    if profile.branch == "log":
        return profile.a / r
    beta = profile.beta
    return profile.a * beta * r ** (beta - 1.0)


def fit_two_point(
    r1: float, v1: float, r2: float, v2: float, p: float, d: int
) -> RadialProfile:
    """Radial profile taking the values v1 at r1 and v2 at r2.

    In the power branch a = (v2 - v1)/(r2^beta - r1^beta); the log branch
    replaces r^beta by log r.
    """
    if r1 <= 0.0 or r2 <= 0.0:
        raise RadialDomainError(f"radii must be positive, got ({r1}, {r2})")
    if r1 == r2:
        raise RadialDomainError(f"degenerate fit interval r1 == r2 == {r1}")
    if d == p:
        f1, f2 = math.log(r1), math.log(r2)
    else:
        beta = beta_exponent(p, d)
        f1, f2 = r1**beta, r2**beta
    a = (v2 - v1) / (f2 - f1)
    b = v1 - a * f1
    return RadialProfile(a=a, b=b, p=p, d=d)


class BarrierValidityError(GeometryError):
    """Raised when the offset lies outside the lower barrier's window.

    Callers fall back to the constant far-window bound in that regime.
    """


def lower_barrier_radii(x: float, rho1: float, pair: ParticlePair) -> tuple[float, float]:
    """Radii (rho1, rho2) of the lower-barrier circle pair at the offset x,
    a number:

        rho2 = -R + (2R + delta) [ sqrt(1 - x^2/R^2)
                                   - sqrt(((R - rho1)/(2R + delta))^2 - x^2/R^2) ]

    Outside its window |x| <= R (R - rho1) / (2R + delta), where the second
    radicand is negative, a BarrierValidityError is raised; inside it a
    radicand that rounding leaves below 0 counts as 0."""
    R, delta = pair.R, pair.delta
    if not 0.0 < rho1 < R:
        raise GeometryError(f"inner radius rho1={rho1} must lie in (0, R={R})")
    s = 2.0 * R + delta
    if abs(x) > R * (R - rho1) / s:
        raise BarrierValidityError(
            f"lower barrier undefined at |x|={abs(x)}; valid window is "
            f"|x| <= {R * (R - rho1) / s}"
        )
    u = x * x / (R * R)
    rad2 = max(((R - rho1) / s) ** 2 - u, 0.0)
    return rho1, -R + s * (math.sqrt(1.0 - u) - math.sqrt(rad2))
