"""Radial p-harmonic profiles and neck flux bounds.

A radial profile

    psi(r) = a * r^beta + b,   beta = (p - d)/(p - 1)      (power branch)
    psi(r) = a * log(r) + b                                 (log branch, d = p)

solves div(|grad psi|^(p-2) grad psi) = 0 away from its center, for any
amplitude a and offset b.  Fitting such a profile through two radii gives
the comparison functions used to sandwich the normal derivative on the
neck arcs of two near-touching conductors: the potential gap T2 - T1
divided by the barrier-circle separation bounds n.grad(u) up to a factor
1 + O(delta) and an additive constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .geometry import (
    ParticlePair,
    gap_width,
    lower_barrier_outer_radius,
    upper_barrier_radii,
)

__all__ = [
    "RadialProfile",
    "FluxBound",
    "radial_eval",
    "fit_two_point",
    "radial_gradient",
    "barrier_flux_bound",
    "beta_exponent",
]

Branch = Literal["power", "log"]

C_DELTA = 2.0  # first-order widening factor 1 +/- C_DELTA*delta of the flux bounds


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
class FluxBound:
    """Sandwich for the normal derivative at a neck-arc point.

    `leading` is (T2 - T1)/(delta + x^2/R); `lower` and `upper` come from
    the barrier-circle separations with the first-order factor
    (1 +/- c*delta) and the additive slack C applied.  The normal here
    points from the gap into particle 2, which makes all three values
    nonnegative when T2 >= T1.  For an array of offsets every field but
    `slack` is an array, one entry per offset.
    """

    lower: float
    upper: float
    leading: float
    slack: float
    gap_upper_barrier: float
    gap_lower_barrier: float
    lower_barrier_valid: bool

    def contains(self, value):
        return (self.lower <= value) & (value <= self.upper)


def barrier_flux_bound(
    x,
    T1: float,
    T2: float,
    pair: ParticlePair,
    C_slack: float,
) -> FluxBound:
    """Two-sided bound for n.grad(u) at the neck-arc point above x, a
    number or an array of offsets.

    The upper bound divides the potential gap by the upper-barrier
    separation (inner radius r1 = delta), the lower bound by the exact
    lower-barrier separation (rho1 = delta); both are then widened by the
    first-order factor (1 +/- C_DELTA*delta) and the additive slack
    C_slack.  Outside the lower construction's validity window the
    quadratic gap inflated by (1 + C_DELTA*delta) is used instead.  The
    bounds depend on neither p nor the dimension.  For a number x the
    fields are floats and `lower_barrier_valid` a bool.
    """
    if T2 < T1:
        raise ValueError(
            f"need T2 >= T1 (swap particle labels otherwise), got T1={T1}, T2={T2}"
        )
    if pair.delta <= 0.0:
        raise ValueError("barrier bounds require a positive surface gap")
    delta = pair.delta
    _, r2 = upper_barrier_radii(x, delta, pair)
    gap_u = r2 - delta
    gap_quad = gap_width(x, pair, "quadratic")
    dT = T2 - T1
    rho2, valid = lower_barrier_outer_radius(x, delta, pair)
    gap_l = np.where(valid, rho2 - delta, gap_quad * (1.0 + C_DELTA * delta))

    one = 1.0 + C_DELTA * delta
    fields = {
        "lower": dT / gap_l / one - C_slack,
        "upper": dT / gap_u * one + C_slack,
        "leading": dT / gap_quad,
        "gap_upper_barrier": gap_u,
        "gap_lower_barrier": gap_l,
    }
    if np.ndim(x) == 0:
        fields = {k: float(v) for k, v in fields.items()}
        valid = bool(valid)
    return FluxBound(slack=C_slack, lower_barrier_valid=valid, **fields)
