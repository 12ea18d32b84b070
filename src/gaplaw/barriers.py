"""Neck flux bounds from barrier circles.

The comparison functions of the paper are radial p-harmonic profiles
fitted between two concentric barrier circles: the potential gap T2 - T1
divided by the barrier-circle separation bounds n.grad(u) on the neck
arcs of two near-touching conductors up to a factor 1 + O(delta) and an
additive constant.  Only that bound is computed here; the profiles
themselves are test oracles (`tests/radial.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    ParticlePair,
    gap_width,
    lower_barrier_outer_radius,
    upper_barrier_radii,
)

__all__ = [
    "FluxBound",
    "barrier_flux_bound",
]

C_DELTA = 2.0  # first-order widening factor 1 +/- C_DELTA*delta of the flux bounds


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
