"""Exact and leading-order geometry of two near-touching disks.

Everything lives in a local frame with the gap centered at the origin:
particle 2 is the disk of radius R centered at (0, +(R + delta/2)) and
particle 1 its mirror image below the x-axis, so the surfaces are a
distance delta apart at x = 0.  The vertical width of the gap at
horizontal offset x is 2R + delta - 2*sqrt(R^2 - x^2) (`gap_width`), at
least its leading-order parabola delta + x^2/R.

The two barrier radii are the outer radii of the pairs of concentric
tangent circles that sandwich the normal derivative in the neck: for an
inner circle of radius r1 tangent to particle 1 from inside, the
concentric circle tangent to particle 2 (upper barrier), and the
analogous exact construction from inside particle 2 (lower barrier),
valid on a window of offsets.  `barrier_flux_bound` turns the two
separations into the sandwich.
All functions are pure and scale-covariant: scaling every input length by
a factor lam scales every returned length by lam, and the flux bounds, as
gradients, are unchanged when the potentials scale by lam as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ParticlePair",
    "NeckSpec",
    "DomainSpec",
    "AnnulusSpec",
    "gap_width",
    "upper_barrier_outer_radius",
    "lower_barrier_outer_radius",
    "barrier_flux_bound",
    "datum_values",
]

DIM = 2  # the disks, their meshes and every solve live in the plane
NECK_W_FRACTION = 0.25  # neck-window half-width, as a fraction of R
C_DELTA = 2.0  # first-order widening factor 1 +/- C_DELTA*delta/R of the flux bounds


class GeometryError(ValueError):
    """Raised when an argument violates a geometric precondition."""


@dataclass(frozen=True)
class ParticlePair:
    """Two disks of common radius R with surface gap delta.

    Centers sit on the vertical axis at +/-(R + delta/2); the center
    separation is exactly 2R + delta.
    """

    R: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.R < math.inf:
            raise GeometryError(f"particle radius R must be positive and finite, got {self.R}")
        if not 0.0 <= self.delta < math.inf:
            raise GeometryError(
                f"surface gap delta must be nonnegative and finite, got {self.delta}"
            )

    @property
    def center1(self) -> tuple[float, float]:
        return (0.0, -(self.R + 0.5 * self.delta))

    @property
    def center2(self) -> tuple[float, float]:
        return (0.0, self.R + 0.5 * self.delta)

    def lower_arc_y(self, x):
        """y of the particle-1 surface (top of the lower disk) at offset x."""
        r2 = self.R * self.R - np.asarray(x) ** 2
        return -(self.R + 0.5 * self.delta) + np.sqrt(r2)

    def upper_arc_y(self, x):
        """y of the particle-2 surface (bottom of the upper disk) at offset x."""
        r2 = self.R * self.R - np.asarray(x) ** 2
        return (self.R + 0.5 * self.delta) - np.sqrt(r2)


def gap_width(x, pair: ParticlePair):
    """Vertical distance 2R + delta - 2 sqrt(R^2 - x^2) between the particle
    surfaces at offset x, a number or an array of offsets |x| < R; it is at
    least the leading-order parabola delta + x^2/R, itself at least delta."""
    if np.any(np.abs(x) >= pair.R):
        raise GeometryError(f"|x|={np.max(np.abs(x))} must be < R={pair.R}")
    return 2.0 * pair.R + pair.delta - 2.0 * np.sqrt(pair.R**2 - x * x)


def upper_barrier_outer_radius(x, r1: float, pair: ParticlePair):
    """Outer radius r2 of the upper-barrier circle pair at contact offset
    x, a number or an array of offsets.

    The inner circle of radius r1 touches particle 1 from inside at the
    surface point above x; r2 is the radius of the concentric circle
    tangent to particle 2, to quadratic order in x:

        r2 = delta + r1 + (1/2) (1 - r1/R) (2 - r1/R) x^2 / R

    At x = 0 the separation r2 - r1 collapses to delta.
    """
    if not 0.0 < r1 < pair.R:
        raise GeometryError(f"inner radius r1={r1} must lie in (0, R={pair.R})")
    if np.any(np.abs(x) >= pair.R):
        raise GeometryError(f"|x|={np.max(np.abs(x))} must be < R={pair.R}")
    R, delta = pair.R, pair.delta
    return delta + r1 + 0.5 * (1.0 - r1 / R) * (2.0 - r1 / R) * x * x / R


def lower_barrier_outer_radius(x, rho1: float, pair: ParticlePair):
    """(rho2, valid) of the lower-barrier circle pair at offset x, a number
    or an array of offsets.  The inner circle of radius rho1 touches
    particle 2 from inside, centered on the ray from the center of
    particle 1 through the surface point above x; rho2 is the exact
    distance from that center to the surface point:

        rho2 = -R + (2R + delta) [ sqrt(1 - x^2/R^2)
                                   - sqrt(((R - rho1)/(2R + delta))^2 - x^2/R^2) ]

    (delta + rho1 at x = 0).  `valid` is the window |x| <= R (R - rho1) /
    (2R + delta), where the second radicand is nonnegative; inside it a
    radicand that rounding leaves below 0 counts as 0, and outside it
    rho2 is NaN.
    """
    if not 0.0 < rho1 < pair.R:
        raise GeometryError(f"inner radius rho1={rho1} must lie in (0, R={pair.R})")
    R, delta = pair.R, pair.delta
    s = 2.0 * R + delta
    u = x * x / (R * R)
    valid = np.abs(x) <= R * (R - rho1) / s
    rad2 = np.where(valid, np.maximum(((R - rho1) / s) ** 2 - u, 0.0), np.nan)
    with np.errstate(invalid="ignore"):
        rho2 = -R + s * (np.sqrt(1.0 - u) - np.sqrt(rad2))
    return rho2, valid


def barrier_flux_bound(x, T1: float, T2: float, pair: ParticlePair, C_slack: float):
    """(lower, upper) bounds for n.grad(u) at the neck-arc point above x,
    a number or an array of offsets; the normal points from the gap into
    particle 2.

    The upper bound divides the potential gap by the upper-barrier
    separation (inner radius r1 = delta), the lower bound by the exact
    lower-barrier separation (rho1 = delta); both are then widened by the
    first-order factor (1 +/- C_DELTA*delta/R) and the additive slack
    C_slack.  Outside the lower construction's validity window the
    quadratic gap delta + x^2/R inflated by (1 + C_DELTA*delta/R) is used
    instead.  The bounds depend on neither p nor the dimension.
    """
    if T2 < T1:
        raise ValueError(
            f"need T2 >= T1 (swap particle labels otherwise), got T1={T1}, T2={T2}"
        )
    if pair.delta <= 0.0:
        raise ValueError("barrier bounds require a positive surface gap")
    delta = pair.delta
    one = 1.0 + C_DELTA * delta / pair.R
    r2 = upper_barrier_outer_radius(x, delta, pair)
    rho2, valid = lower_barrier_outer_radius(x, delta, pair)
    gap_l = np.where(valid, rho2 - delta, (delta + x * x / pair.R) * one)
    dT = T2 - T1
    return dT / gap_l / one - C_slack, dT / (r2 - delta) * one + C_slack


@dataclass(frozen=True)
class NeckSpec:
    """The neck region between the particles within the window |x| <= w.

    Boundary decomposition: arc_1 and arc_2 are the particle-surface
    pieces with |x| <= w (on particles 1 and 2 respectively), and the two
    lateral walls are the vertical segments at x = +/-w connecting them.
    """

    pair: ParticlePair
    w: float

    def __post_init__(self) -> None:
        if not 0.0 < self.w < self.pair.R:
            raise GeometryError(f"neck width w={self.w} must lie in (0, R={self.pair.R})")

    def contains(self, x, y):
        """Membership test for the open neck region: a boolean array of
        the broadcast shape of the coordinate arrays x, y."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        in_window = np.abs(x) < self.w
        xw = np.where(in_window, x, 0.0)  # keep the arc square roots real
        return in_window & (self.pair.lower_arc_y(xw) < y) & (y < self.pair.upper_arc_y(xw))


def _linear_y(x, y):
    return y


def datum_values(datum, xy) -> np.ndarray:
    """A boundary datum evaluated at the rows (x, y) of xy in one call.

    Data take coordinate arrays; one that returns a scalar (a constant)
    is broadcast over the points.
    """
    pts = np.asarray(xy, dtype=float)
    vals = np.empty(len(pts))
    vals[:] = datum(pts[:, 0], pts[:, 1])
    return vals


@dataclass(frozen=True)
class DomainSpec:
    """Two-particle conductor geometry inside a disk of radius R_out.

    The outer boundary is the circle of radius R_out centered at the
    origin; `boundary_datum` is the applied potential on it, a callable
    taking coordinate arrays x, y.  The particles must fit inside the
    outer disk (a positive `boundary_margin`); the larger distance a sweep
    keeps is checked by `SweepConfig.domain`.
    """

    pair: ParticlePair
    R_out: float
    boundary_datum: Callable = _linear_y

    def __post_init__(self) -> None:
        if not math.isfinite(self.R_out):
            raise GeometryError(f"outer radius R_out must be finite, got {self.R_out}")
        margin = self.boundary_margin
        if margin <= 0.0:
            raise GeometryError(
                f"particles do not fit inside the outer disk of radius {self.R_out} "
                f"(margin {margin:.6g})"
            )

    @property
    def boundary_margin(self) -> float:
        """Actual distance from the particles to the outer boundary."""
        return self.R_out - (2.0 * self.pair.R + 0.5 * self.pair.delta)

    def datum_values(self, xy) -> np.ndarray:
        return datum_values(self.boundary_datum, xy)


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
