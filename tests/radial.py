"""Radial p-harmonic profiles, the annulus mesh they are exact on, and the
scalar lower barrier: test oracles.

A radial profile

    psi(r) = a * r^beta + b,   beta = (p - d)/(p - 1)      (power branch)
    psi(r) = a * log(r) + b                                 (log branch, d = p)

solves div(|grad psi|^(p-2) grad psi) = 0 away from its center, for any
amplitude a and offset b.  Fitted through two radii it is the exact
solution of the prescribed problem on an annulus (criterion 4), and the
comparison function behind the neck flux sandwich of
`gaplaw.geometry.barrier_flux_bound`.

`AnnulusSpec` and `build_annulus_mesh` give that annulus as a structured
polar mesh, the inner circle tagged as particle 1 (the single inclusion)
and the outer circle as the outer boundary.

`lower_barrier_radii` evaluates the lower-barrier formula of
`gaplaw.geometry.lower_barrier_outer_radius` again, one offset at a time
with `math.sqrt`: it raises where the lower barrier does not exist
instead of returning a validity mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from gaplaw.geometry import GeometryError, ParticlePair
from gaplaw.mesh import TAG_OUTER, TAG_P1, Mesh, MeshError

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


@dataclass(frozen=True)
class AnnulusSpec:
    """Annulus r_inner < r < r_outer used for exact-solution solver tests.

    The inner circle plays the role of a single prescribed-potential
    inclusion, the outer circle carries the applied datum.
    """

    r_inner: float
    r_outer: float

    def __post_init__(self) -> None:
        if not 0.0 < self.r_inner < self.r_outer:
            raise GeometryError(
                f"need 0 < r_inner < r_outer, got ({self.r_inner}, {self.r_outer})"
            )


def build_annulus_mesh(annulus: AnnulusSpec, h: float) -> Mesh:
    """Structured polar triangulation of an annulus.

    The inner circle is tagged as particle 1 (the single inclusion), the
    outer circle as the outer boundary.  Node counts scale as 1/h in both
    directions, so halving h refines uniformly.
    """
    if h <= 0:
        raise MeshError("mesh size must be positive")
    r1, r2 = annulus.r_inner, annulus.r_outer
    n_r = max(2, int(math.ceil((r2 - r1) / h)))
    r_mid = 0.5 * (r1 + r2)
    n_t = max(8, int(math.ceil(2.0 * math.pi * r_mid / h)))
    radii = np.linspace(r1, r2, n_r + 1)
    theta = 2.0 * math.pi * np.arange(n_t) / n_t

    nodes = np.column_stack([
        (radii[:, None] * np.cos(theta)).ravel(), (radii[:, None] * np.sin(theta)).ravel()
    ])
    tags = np.zeros((n_r + 1) * n_t, dtype=np.int8)
    tags[:n_t] = TAG_P1
    tags[n_r * n_t :] = TAG_OUTER

    k = np.arange(n_r)[:, None]
    j = np.arange(n_t)[None, :]
    jn = (j + 1) % n_t
    a, b = k * n_t + j, k * n_t + jn
    c, d = b + n_t, a + n_t
    tris = np.stack([np.stack([a, b, c], -1), np.stack([a, c, d], -1)], -2).reshape(-1, 3)
    return Mesh(nodes=nodes, triangles=tris, node_tags=tags, domain=annulus)


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
