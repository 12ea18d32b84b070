"""Boundary flux integrals and the linear-case blow-up functional.

Flux of a discrete solution through a boundary curve means

    integral over the curve of |grad u|^(p-2) n . grad u ds.

Normal conventions (often left implicit, so they are fixed here once):

* outer boundary: n points out of the computational domain;
* particle boundaries: n points out of the particle, into the conducting
  medium.

With the canonical datum U = y and particle 2 on top, these conventions
make the tied-problem net flux through particle 2 (the quantity driving
the blow-up laws) positive.  Conservation then reads

    flux(outer) = flux(particle 1) + flux(particle 2).

Curve fluxes are variational: they sum the unconstrained energy-gradient
residuals over the curve's nodes, which is the flux the discrete
optimality conditions control.  Per-particle fluxes of floating solves
and the combined flux of tied solves vanish to solver tolerance by
construction, and global conservation holds to the same tolerance.
When every fixed value is the same constant (the outer datum, and for a
prescribed solve both pinned potentials too), the minimizer is that
constant and every flux is 0: the sums are rounding alone, so the
relative defects are reported as 0.  The pointwise neck-flux samples
checked against the barrier bounds are one-sided element gradients at
the boundary-edge midpoints instead (`sample_neck_flux`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import NeckSpec
from .mesh import TAG_OUTER, TAG_P1, TAG_P2, Mesh
from .solver import DiscreteSolution, _grad_full, element_gradients

__all__ = [
    "FluxReport",
    "R0Estimate",
    "FluxError",
    "ExtrapolationUnreliableError",
    "flux_report",
    "r_delta",
    "estimate_r0",
    "q_functional",
    "QReport",
    "sample_neck_flux",
]

_R0_ABS_FLOOR = 1e-9  # R_delta misfits below this are solver roundoff, not noise
R0_NOISE_TOL = 0.25  # largest R_delta misfit accepted, as a fraction of the data range
MIN_LADDER_POINTS = 3  # fewest deltas a line through R_delta, or a power-law fit, takes


class FluxError(ValueError):
    pass


class ExtrapolationUnreliableError(RuntimeError):
    """Raised when the R_delta ladder is too noisy to extrapolate."""

    def __init__(self, message: str, ladder):
        super().__init__(message)
        self.ladder = ladder


def _node_flux_weights(solution: DiscreteSolution) -> np.ndarray:
    """Per-node flux in the raw all-outward convention (out of the domain
    everywhere, i.e. into the particles on particle curves)."""
    return _grad_full(solution.mesh, solution.u, solution.p, solution.eps) / solution.p


def _neck_side(neck: NeckSpec, pts: np.ndarray) -> np.ndarray:
    """Mask of the points of particle 2 on the neck arc: the gap side
    within the neck window."""
    # gap side of the particle only: |x| <= w excludes the far side
    return (np.abs(pts[:, 0]) <= neck.w) & (pts[:, 1] < neck.pair.center2[1])


def _neck_edges(mesh: Mesh, neck: NeckSpec):
    """Boundary edges of particle 2 on the neck arc: their owning
    elements, midpoints and unit normals out of the domain (into
    particle 2).  A boundary edge is stored in the vertex order of its
    counterclockwise owner, so its right-hand normal points outward."""
    edges, owners = mesh.boundary_edges[TAG_P2]
    a = mesh.nodes[edges[:, 0]]
    b = mesh.nodes[edges[:, 1]]
    mid = 0.5 * (a + b)
    sel = _neck_side(neck, mid)
    tang = b[sel] - a[sel]
    lengths = np.hypot(tang[:, 0], tang[:, 1])
    normals = np.column_stack([tang[:, 1], -tang[:, 0]]) / lengths[:, None]
    return owners[sel], mid[sel], normals


@dataclass(frozen=True)
class FluxReport:
    """All boundary fluxes of one solve plus their balance defects.

    Defects are relative to `scale`, the largest flux piece magnitude
    (the neck sub-arc typically dominates): |outer - particle 1 -
    particle 2|, (|particle 1|, |particle 2|) and |particle 1 +
    particle 2|.  They are 0 when `scale` is 0, and when the fixed values
    are all equal (a field with no flux, whose sums are rounding alone).
    """

    kind: str
    flux_outer: float
    flux_p1: float
    flux_p2: float
    flux_s2: float | None
    flux_p2_away: float | None
    scale: float
    balance_defect_rel: float
    particle_defects_rel: tuple[float, float]
    combined_defect_rel: float

    def curves(self) -> dict[str, float]:
        """Flux per curve name (the names of `fluxes.csv`); the neck split
        is left out when the report has none."""
        named = {"outer": self.flux_outer, "particle1": self.flux_p1, "particle2": self.flux_p2,
                 "neck_arc": self.flux_s2, "particle2_away": self.flux_p2_away}
        return {curve: val for curve, val in named.items() if val is not None}

    def csv_rows(self, delta: float) -> list[str]:
        """One `delta,kind,curve,flux` row per reported curve."""
        return [f"{delta!r},{self.kind},{curve},{val!r}" for curve, val in self.curves().items()]


def flux_report(solution: DiscreteSolution, neck: NeckSpec | None = None) -> FluxReport:
    """Assemble the per-curve flux table for one converged solve.

    This is where every boundary flux is summed: each curve's flux is the
    sum of the `_node_flux_weights` over its nodes, with the sign flipped
    on the particles (their normals point out of the particle).  Given a
    neck, particle 2 is also split into the neck arc and the rest.
    """
    mesh = solution.mesh
    w = _node_flux_weights(solution)
    outer = mesh.nodes_with_tag(TAG_OUTER)
    p1 = mesh.nodes_with_tag(TAG_P1)
    p2 = mesh.nodes_with_tag(TAG_P2)
    for curve, idx in (("outer", outer), ("particle1", p1)):
        if len(idx) == 0:
            raise FluxError(f"mesh has no nodes on curve {curve!r}")
    f_out = float(np.sum(w[outer]))
    f_p1 = -float(np.sum(w[p1]))
    f_p2 = -float(np.sum(w[p2])) if len(p2) > 0 else 0.0
    f_s2 = f_away = None
    if neck is not None and len(p2) > 0:
        arc = _neck_side(neck, mesh.nodes[p2])
        f_s2 = -float(np.sum(w[p2[arc]]))
        f_away = -float(np.sum(w[p2[~arc]]))
    pieces = [f_out, f_p1, f_p2] + [v for v in (f_s2, f_away) if v is not None]
    scale = max(abs(v) for v in pieces)
    # equal fixed values make the minimizer that constant, with no flux
    fixed = outer if solution.kind != "prescribed" else np.concatenate([outer, p1, p2])
    no_flux = scale == 0.0 or np.ptp(solution.u[fixed]) == 0.0
    defects = (abs(f_out - f_p1 - f_p2), abs(f_p1), abs(f_p2), abs(f_p1 + f_p2))
    balance, d_p1, d_p2, combined = (0.0 if no_flux else d / scale for d in defects)
    return FluxReport(
        kind=solution.kind,
        flux_outer=f_out,
        flux_p1=f_p1,
        flux_p2=f_p2,
        flux_s2=f_s2,
        flux_p2_away=f_away,
        scale=scale,
        balance_defect_rel=balance,
        particle_defects_rel=(d_p1, d_p2),
        combined_defect_rel=combined,
    )


def r_delta(solution: DiscreteSolution) -> float:
    """Net flux through particle 2 of a tied solve (particle-outward)."""
    if solution.kind != "tied":
        raise FluxError(f"r_delta is defined for tied solves, got {solution.kind!r}")
    return flux_report(solution).flux_p2


@dataclass(frozen=True)
class R0Estimate:
    """Tied-ladder extrapolation of the limiting flux constant.

    `ladder` holds (delta, R_delta) pairs in decreasing delta order; the
    extrapolation fits R_delta = R0 + slope*delta by least squares and
    `residual` is the fit deviation at the smallest delta.  The fit
    residuals are part of the public result, never hidden.
    """

    ladder: tuple[tuple[float, float], ...]
    R0: float
    slope: float
    residual: float
    max_fit_residual: float


def estimate_r0(pairs) -> R0Estimate:
    """Extrapolate R_delta -> R0 from (delta, R_delta) pairs.

    The pairs must be finite and the deltas strictly decreasing, at least
    MIN_LADDER_POINTS of them.  Raises
    ExtrapolationUnreliableError (carrying the ladder) when the
    linear-in-delta fit misfits by more than R0_NOISE_TOL of the larger of
    the data range and |R0|, and by more than solver roundoff.
    """
    pairs = [(float(d), float(v)) for d, v in pairs]
    bad = [pair for pair in pairs if not np.isfinite(pair).all()]
    if bad:
        raise ValueError(f"(delta, R_delta) pairs must be finite, got {bad}")
    if any(b >= a for (a, _), (b, _) in zip(pairs, pairs[1:])):
        raise ValueError("delta ladder must be strictly decreasing")
    if len(pairs) < MIN_LADDER_POINTS:
        raise ValueError(f"R0 extrapolation needs at least {MIN_LADDER_POINTS} ladder points")
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    A = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fit = A @ coef
    resid = np.abs(fit - y)
    misfit = float(np.max(resid))
    if misfit > R0_NOISE_TOL * max(np.ptp(y), abs(coef[0])) and misfit > _R0_ABS_FLOOR:
        raise ExtrapolationUnreliableError(
            f"R_delta ladder misfits linear extrapolation by {misfit:.3e}",
            pairs,
        )
    return R0Estimate(
        ladder=tuple(pairs),
        R0=float(coef[0]),
        slope=float(coef[1]),
        residual=float(resid[-1]),
        max_fit_residual=misfit,
    )


@dataclass(frozen=True)
class QReport:
    """The linear-case blow-up functional and its algebraic identity.

    a[i][j] are the particle-boundary fluxes of the three harmonic
    auxiliaries (particle-outward normals), b[j] the outer-boundary
    fluxes (domain-outward).  The identity

        Q = -(b1 + b2) * R_delta

    is checked with R_delta computed from the tied combination
    T*(v1 + v2) + v3 on the same mesh; `identity_defect` is the absolute
    difference of the two sides.
    """

    Q: float
    a: tuple[tuple[float, float, float], tuple[float, float, float]]
    b: tuple[float, float]
    T_tied: float
    R_delta: float
    identity_defect: float
    reciprocity_defect: float


def q_functional(v1: DiscreteSolution, v2: DiscreteSolution,
                 v3: DiscreteSolution) -> QReport:
    """Blow-up functional of the three linear auxiliaries.

    Q = flux_1(v3) * b_2 - flux_2(v3) * b_1, with flux_i over particle i
    and b_j over the outer boundary.  All three solutions must live on
    the same mesh, at p = 2, with particle potentials (T1, T2) of
    (1, 0), (0, 1) and (0, 0) in that order; anything else raises
    FluxError naming the argument.  The tied linear solution is
    reconstructed by superposition, which is exact for the discrete
    problems.
    """
    mesh = v1.mesh
    if v2.mesh is not mesh or v3.mesh is not mesh:
        raise FluxError("q_functional needs all three auxiliaries on one mesh")
    for name, sol, pinned in (("v1", v1, (1.0, 0.0)), ("v2", v2, (0.0, 1.0)),
                              ("v3", v3, (0.0, 0.0))):
        if sol.p != 2.0:
            raise FluxError(f"q_functional: {name} is a p = {sol.p} solution, expected p = 2")
        if (sol.T1, sol.T2) != pinned:
            raise FluxError(f"q_functional: {name} has particle potentials "
                            f"{(sol.T1, sol.T2)}, expected {pinned}")
    reps = [flux_report(sol) for sol in (v1, v2, v3)]
    a = np.array([[r.flux_p1 for r in reps], [r.flux_p2 for r in reps]])
    b = np.array([r.flux_outer for r in reps])
    Q = a[0, 2] * b[1] - a[1, 2] * b[0]
    denom = a[0, 0] + a[0, 1] + a[1, 0] + a[1, 1]
    T = -(a[0, 2] + a[1, 2]) / denom
    Rd = T * (a[1, 0] + a[1, 1]) + a[1, 2]
    identity = abs(Q + (b[0] + b[1]) * Rd)
    return QReport(
        Q=float(Q),
        a=((a[0, 0], a[0, 1], a[0, 2]), (a[1, 0], a[1, 1], a[1, 2])),
        b=(float(b[0]), float(b[1])),
        T_tied=float(T),
        R_delta=float(Rd),
        identity_defect=float(identity),
        reciprocity_defect=abs(a[0, 1] - a[1, 0]),
    )


def sample_neck_flux(solution: DiscreteSolution, neck: NeckSpec):
    """Pointwise normal derivative n.grad u at the neck-arc edge midpoints
    of particle 2, with n pointing from the gap into the particle (the
    orientation that makes the values positive when T2 > T1).

    Returns (x_mid, measured) in increasing x_mid: `measured` is the
    one-sided gradient of the element that owns each edge, unsmoothed.
    """
    mesh = solution.mesh
    owners, mid, normals = _neck_edges(mesh, neck)
    if len(owners) == 0:
        raise FluxError("no boundary edges inside the neck window")
    g_elem = element_gradients(mesh, solution.u)[owners]
    measured = np.einsum("ei,ei->e", g_elem, normals)
    order = np.argsort(mid[:, 0])
    return mid[order, 0], measured[order]
