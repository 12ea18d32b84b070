"""Variational solver for the 2-D p-Laplace conductor problems.

All problem kinds minimize the regularized p-Dirichlet energy

    E(u) = sum_elements area * (eps^2 + |grad u|^2)^(p/2)

over piecewise-linear fields with the applied datum pinned on the outer
boundary; they differ only in how the inclusion potentials enter:

  floating    one free constant per particle (zero net flux through each
              particle boundary becomes the natural optimality condition)
  tied        a single free constant shared by both particles (only the
              combined flux vanishes)
  prescribed  particle potentials pinned by the caller (no flux condition)
  linear-aux  the three harmonic unit-datum problems of the p = 2 theory

Free constants are realized by merging all nodes of a particle into one
unknown, so no Lagrange multipliers are needed.  The nonlinear solve is
damped Newton with Armijo backtracking, seeded by continuation in p from
the linear p = 2 solution (the energy Hessian degenerates where the
gradient vanishes, so a good seed matters for p well above 2).

The gradient and Hessian are assembled straight into the reduced
unknowns: a node -> unknown map and a fixed CSC pattern are built once
per solve, and each Newton step fills the pattern with one bincount.
The reduced Hessian is symmetric positive definite.  Newton is inexact:
a solve keeps its last SuperLU factor across steps and p-stages, and
each step first runs a few conjugate-gradient iterations on the current
Hessian preconditioned by that factor, stopped at the Eisenstat-Walker
forcing term (SIAM J. Sci. Comput. 17(1), 1996, choice 2).  Only when CG
misses it, meets negative curvature or gives no descent is the Hessian
factored afresh, with SuperLU in symmetric mode, diagonal pivots and a
minimum-degree ordering of A^T + A.

Convergence is a property of the solution at the target exponent alone:
there Newton stops on the true gradient at max|g| <= newton_tol * S, with
S the largest nodal flux magnitude (or at the rounding floor of g), so a
converged floating solve balances each particle's flux to newton_tol * S
whatever path the continuation took.  An intermediate p-stage only seeds
the next one and stops once max|g| has fallen by STAGE_RTOL.  The forcing
term is floored at half the stop threshold over ||g||_2, so no step solves
its linear system further than the stop test can see (Kelley, Iterative
Methods for Linear and Nonlinear Equations, SIAM 1995, 6.3).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import AnnulusSpec, DomainSpec, NeckSpec, datum_values
from .mesh import TAG_INTERIOR, TAG_OUTER, TAG_P1, TAG_P2, Mesh, save_mesh_text

__all__ = [
    "SolverConfig",
    "DiscreteSolution",
    "SolverError",
    "energy",
    "solve_floating",
    "solve_tied",
    "solve_prescribed",
    "solve_linear_aux",
    "grad_max",
    "element_gradients",
    "recovered_node_gradients",
    "save_solution_text",
]

ARMIJO_C1 = 1e-4  # sufficient-decrease constant of the backtracking line search
ARMIJO_SHRINK = 0.5  # step factor per backtrack
ARMIJO_MAX_BACKTRACKS = 50
# Inexact Newton: the forcing-term bounds and the CG budget before a
# refactor.  A CG step costs a few ms against ~80 ms per factorization of a
# 20k-dof Hessian, so the forcing term is kept loose (ETA_MAX 1e-2); a
# tight one (1e-8) spent the saved factorizations on CG steps instead.
ETA_MAX = 1e-2
ETA_MIN = 1e-6
CG_MAX_ITER = 8
# An intermediate p-stage only seeds the next one: it stops once max|g| has
# fallen by this factor.  On a 19.7k-node p = 6 mesh the floating and tied
# solves took 7 + 10 factorizations at 0.3 and 0.1, 7 + 5 at 1e-2 and
# 5 + 6 at 1e-3, with the same answer to 6e-12.
STAGE_RTOL = 1e-3


class SolverError(RuntimeError):
    """Raised on an ill-posed solve request or when Newton fails to converge."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass(frozen=True)
class SolverConfig:
    """Newton / regularization parameters.

    newton_tol is relative to the largest nodal flux magnitude of the
    solution at the target exponent (see `_newton`); max_iter bounds the
    Newton steps of each p-stage.  eps_scale sets the gradient
    regularization eps = eps_scale * (max U - min U) / R_domain; p_step
    is the increment of the continuation ladder from p = 2 up to the
    target exponent.  max_iter < 1, newton_tol outside (0, 1),
    eps_scale < 0 and p_step <= 0 (or NaN) raise ValueError.
    """

    newton_tol: float = 1e-12
    max_iter: int = 80
    eps_scale: float = 1e-8
    p_step: float = 0.5
    p_continuation: bool = True

    def __post_init__(self):
        if not (isinstance(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not 0.0 < self.newton_tol < 1.0:
            raise ValueError(f"newton_tol must lie in (0, 1), got {self.newton_tol}")
        if not self.eps_scale >= 0.0:
            raise ValueError(f"eps_scale must be >= 0, got {self.eps_scale}")
        if not self.p_step > 0.0:
            raise ValueError(f"p_step must be positive, got {self.p_step}")


@dataclass
class DiscreteSolution:
    """A converged nodal field with its constraint metadata."""

    mesh: Mesh
    u: np.ndarray
    kind: str
    p: float
    eps: float
    energy: float
    T1: float | None = None
    T2: float | None = None
    trace: list = field(default_factory=list)
    config: SolverConfig | None = None
    newton_iters: int = 0

    @property
    def gap(self) -> float:
        if self.T1 is None or self.T2 is None:
            raise ValueError(f"solution of kind {self.kind!r} has no potential gap")
        return self.T2 - self.T1


# -----------------------------------------------------------------------------
# energy / gradient / Hessian assembly
# -----------------------------------------------------------------------------


def element_gradients(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """(m, 2) array of the constant P1 gradient on each element."""
    uloc = u[mesh.triangles]
    return np.einsum("eik,ek->ei", mesh.grads, uloc)


def energy(mesh: Mesh, u: np.ndarray, p: float, eps: float = 0.0) -> float:
    """Regularized p-Dirichlet energy of a nodal field.

    Exact for piecewise-linear u at eps = 0 (the integrand is constant
    per element), and convex in u for p >= 2.
    """
    g = element_gradients(mesh, u)
    s = eps * eps + np.einsum("ei,ei->e", g, g)
    return float(np.sum(mesh.areas * s ** (0.5 * p)))


def _element_weights(mesh: Mesh, u: np.ndarray, p: float, eps: float):
    """Per-element B^T grad u (m, 3) and the two Hessian weights.

    The element Hessian is w1 * B^T B + w2 * (B^T g)(B^T g)^T and the
    element gradient is w1 * B^T g, with s = eps^2 + |g|^2,
    w1 = area p s^(p/2-1) and w2 = area p (p-2) s^(p/2-2).
    """
    g = element_gradients(mesh, u)
    s = eps * eps + np.einsum("ei,ei->e", g, g)
    w1 = mesh.areas * p * s ** (0.5 * p - 1.0)
    # where the gradient vanishes the rank-one term is zero anyway; guard
    # the negative power so 0 * inf does not poison the assembly
    s_safe = np.where(s > 0.0, s, 1.0)
    w2 = mesh.areas * p * (p - 2.0) * s_safe ** (0.5 * p - 2.0)
    bg = np.einsum("eik,ei->ek", mesh.grads, g)
    return bg, w1, w2


def _grad_full(mesh: Mesh, u: np.ndarray, p: float, eps: float) -> np.ndarray:
    """Energy gradient with respect to every nodal value."""
    bg, w1, _ = _element_weights(mesh, u, p, eps)
    contrib = w1[:, None] * bg
    return np.bincount(mesh.triangles.ravel(), contrib.ravel(), mesh.n_nodes)


# -----------------------------------------------------------------------------
# constraint structure and reduced assembly
# -----------------------------------------------------------------------------


class _Constraints:
    """Reduction u = u_fix + z[dof] from nodal values to free unknowns.

    `dof` maps each node to its free unknown, -1 on a fixed node; all
    nodes of a floating particle share one unknown.  The gradient and
    Hessian are assembled straight into the reduced unknowns through a
    scatter map built here once and reused by every Newton step and
    p-stage: each local entry (k, l) of each element whose nodes are both
    free lands in a fixed slot of a CSC pattern, so one `np.bincount`
    fills the matrix.
    """

    def __init__(self, mesh: Mesh, dof: np.ndarray, n_dof: int, u_fix: np.ndarray,
                 dof_T1: int | None = None, dof_T2: int | None = None):
        self.mesh = mesh
        self.n_dof = n_dof
        self.u_fix = u_fix
        self.dof_T1 = dof_T1
        self.dof_T2 = dof_T2
        self._free = np.flatnonzero(dof >= 0)
        self._free_dof = dof[self._free]
        edof = dof[mesh.triangles]
        self._g_mask = edof >= 0
        self._g_dof = edof[self._g_mask]
        rows = np.repeat(edof, 3, axis=1)  # local entry (k, l) at 3k + l
        cols = np.tile(edof, (1, 3))
        self._h_mask = (rows >= 0) & (cols >= 0)
        # column-major keys give CSC directly, the format splu factors
        key = cols[self._h_mask] * n_dof + rows[self._h_mask]
        slots, self._h_slot = np.unique(key, return_inverse=True)
        self._h_indices = slots % n_dof
        self._h_indptr = np.searchsorted(slots // n_dof, np.arange(n_dof + 1))

    def expand(self, z: np.ndarray) -> np.ndarray:
        u = self.u_fix.copy()
        u[self._free] = z[self._free_dof]
        return u

    def grad(self, u: np.ndarray, p: float, eps: float, weights=None) -> np.ndarray:
        """Reduced gradient of the energy at the nodal field u; `weights`
        is `_element_weights(mesh, u, p, eps)` when the caller has it."""
        bg, w1, _ = weights or _element_weights(self.mesh, u, p, eps)
        contrib = w1[:, None] * bg
        return np.bincount(self._g_dof, contrib[self._g_mask], self.n_dof)

    def stop_scales(self, u: np.ndarray, weights) -> tuple[float, float]:
        """(S, rho) of the stop test at the nodal field u, from its
        `_element_weights`.  S = max over dofs of sum_e |w1 B^T g|_e is the
        largest nodal flux magnitude; rho = max over dofs of
        sum_e w1 |B|^T |B| |u_e| bounds the rounding error of the reduced
        gradient, a floor no iterate gets below (it decides where S is
        about 0, as on a constant field)."""
        bg, w1, _ = weights  # w1 > 0
        flux = np.abs(bg)
        flux *= w1[:, None]
        abs_b = np.abs(self.mesh.grads)
        bound = np.einsum("eik,ei->ek", abs_b,
                          np.einsum("eik,ek->ei", abs_b, np.abs(u)[self.mesh.triangles]))
        bound *= w1[:, None]
        S, rho = (
            float(np.max(np.bincount(self._g_dof, a[self._g_mask], self.n_dof), initial=0.0))
            for a in (flux, bound)
        )
        return S, rho

    def hess(self, u: np.ndarray, p: float, eps: float, weights=None) -> sp.csc_matrix:
        """Reduced Hessian of the energy at the nodal field u (symmetric,
        CSC); `weights` as for `grad`."""
        bg, w1, w2 = weights or _element_weights(self.mesh, u, p, eps)
        hloc = w1[:, None, None] * self.mesh.stiffness
        hloc += w2[:, None, None] * np.einsum("ek,el->ekl", bg, bg)
        data = np.bincount(
            self._h_slot, hloc.reshape(-1, 9)[self._h_mask], len(self._h_indices)
        )
        return sp.csc_matrix(
            (data, self._h_indices, self._h_indptr), shape=(self.n_dof, self.n_dof)
        )


def _build_constraints(mesh: Mesh, kind: str, outer_vals: np.ndarray,
                       pinned=None) -> _Constraints:
    """Fixed values and the node -> unknown map; `outer_vals` is the
    applied datum at the outer-boundary nodes, in tag order."""
    n = mesh.n_nodes
    u_fix = np.zeros(n)
    outer_idx = mesh.nodes_with_tag(TAG_OUTER)
    u_fix[outer_idx] = outer_vals
    p1 = mesh.nodes_with_tag(TAG_P1)
    p2 = mesh.nodes_with_tag(TAG_P2)
    interior = mesh.nodes_with_tag(TAG_INTERIOR)

    dof = np.full(n, -1, dtype=np.int64)
    dof[interior] = np.arange(len(interior))
    n_dof = len(interior)
    dof1 = dof2 = None
    if kind == "floating":
        if len(p1) == 0 or len(p2) == 0:
            raise SolverError("floating solve needs both particles")
        dof1, dof2 = n_dof, n_dof + 1
        dof[p1], dof[p2] = dof1, dof2
        n_dof += 2
    elif kind == "tied":
        if len(p1) == 0 or len(p2) == 0:
            raise SolverError("tied solve needs both particles")
        dof1 = dof2 = n_dof
        dof[p1] = dof[p2] = dof1
        n_dof += 1
    elif kind == "prescribed":
        T1, T2 = pinned
        if len(p1):
            u_fix[p1] = T1
        if len(p2):
            if T2 is None:
                raise SolverError("prescribed solve with particle 2 needs T2")
            u_fix[p2] = T2
    elif kind == "linear-aux":
        which = pinned
        u_fix[outer_idx] = 0.0
        if which == "v1":
            u_fix[p1] = 1.0
        elif which == "v2":
            u_fix[p2] = 1.0
        elif which == "v3":
            u_fix[outer_idx] = outer_vals
        else:
            raise SolverError(f"unknown auxiliary problem {which!r}")
    else:
        raise SolverError(f"unknown problem kind {kind!r}")

    return _Constraints(mesh, dof, n_dof, u_fix, dof_T1=dof1, dof_T2=dof2)


# -----------------------------------------------------------------------------
# Newton driver
# -----------------------------------------------------------------------------


def _newton_direction(H: sp.csc_matrix, g: np.ndarray):
    """Solve (H + lam I) dz = -g for a finite descent direction.

    lam starts at 0 and grows while the factorization fails or the
    direction is not one of descent; returns (dz, lam, lu), with lu the
    factor of H + lam I that gave dz, and dz and lu None when no shift
    gave one.
    """
    lam = 0.0
    diag = H.diagonal()
    shift = float(np.mean(np.abs(diag))) if len(diag) else 1.0
    for attempt in range(8):
        if attempt:
            # Hessian singular or direction non-descent: shift and retry
            lam = shift * 1e-10 if lam == 0.0 else lam * 10.0
        Hk = H + lam * sp.eye(H.shape[0], format="csc") if lam else H
        try:
            # rejected: MMD_AT_PLUS_A without SymmetricMode (1.74 s per
            # factorization) vs 0.07 s here on a 19.1k-dof Hessian.  The
            # ordering is not where the time goes: NATURAL on the Hessian
            # permuted by argsort(perm_c) reproduces this fill exactly
            # (672,852 on a 17.8k-dof p = 6 Hessian) in the same time
            # (49 ms vs 51 ms); permuting by perm_c itself gives 10.8M.
            # Diagonal pivots suffice for SPD; the default threshold 1.0
            # swapped rows on a near-singular tied Hessian and gave a
            # poorer direction there (7 extra Newton steps at p = 4.5).
            lu = spla.splu(Hk, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError:  # exactly singular factor
            continue
        dz = lu.solve(-g)
        if np.all(np.isfinite(dz)) and float(g @ dz) < 0.0:
            return dz, lam, lu
        lu = None  # release a factor that gave no descent before the next one
    return None, lam, None


def _pcg(H: sp.csc_matrix, g: np.ndarray, lu, rtol: float):
    """Conjugate gradients on H dz = -g, preconditioned by the factor `lu`.

    Starts from dz = 0 and stops once ||H dz + g||_2 <= rtol ||g||_2.
    Returns (dz, iterations); dz is None when CG missed: no convergence in
    CG_MAX_ITER steps, a search direction d with d^T H d <= 0, or a result
    that is not a descent direction (g . dz >= 0).
    """
    x = np.zeros_like(g)
    r = -g
    target = rtol * float(np.linalg.norm(g))
    s = lu.solve(r)
    d = s
    rs = float(r @ s)
    for it in range(1, CG_MAX_ITER + 1):
        Hd = H @ d
        curv = float(d @ Hd)
        if not curv > 0.0:  # negative curvature, or NaN from the preconditioner
            return None, it
        alpha = rs / curv
        x += alpha * d
        r -= alpha * Hd
        if float(np.linalg.norm(r)) <= target:
            return (x, it) if float(g @ x) < 0.0 else (None, it)
        s = lu.solve(r)
        rs_next = float(r @ s)
        d = s + (rs_next / rs) * d
        rs = rs_next
    return None, CG_MAX_ITER


def _newton(con: _Constraints, p, eps, z0, cfg: SolverConfig, factor: list,
            stage_rtol: float = 0.0):
    """Damped Newton from z0 at one exponent; returns (z, trace).

    The stop test is max|g| <= tol with tol = max(stage_rtol * r0,
    cfg.newton_tol * S, 64 eps_mach * rho), where r0 is max|g| at z0 and
    S and rho are `_Constraints.stop_scales`, the nodal flux magnitude and
    the rounding bound of g.  At the target p (stage_rtol = 0) they are
    taken at every iterate, which makes the answer a property of that p
    alone.  An intermediate p-stage only seeds the next one: it passes
    stage_rtol = STAGE_RTOL, and its threshold is fixed at z0, where the
    S and rho terms let a stage that starts at the rounding floor (a
    constant field) stop at once.

    `factor` is a one-element list holding the last SuperLU factor of the
    solve (None before the first), possibly made at an earlier p-stage.
    Each step first solves H dz = -g by `_pcg` preconditioned with it, to
    the Eisenstat-Walker forcing term eta_k = min(ETA_MAX,
    0.9 (||g_k|| / ||g_k-1||)^2), floored at ETA_MIN and at
    0.5 tol / ||g_k||, so that the last step does not solve past tol
    (eta_0 = ETA_MAX).  When CG misses, or no factor is held yet, the old
    factor is released and `_newton_direction` factors H afresh; the new
    factor replaces it in `factor`, which is the only reference the solve
    keeps, so two factors are never held at once.

    Each trace entry holds the residual, the energy and `tol`, the
    threshold of the stop test, at the start of the iteration, then the
    accepted step length `t` (0 when no step was taken), the Hessian shift
    `lam` of this step's factorization (0 when CG gave the step), `cg`, the
    CG iterations spent (a missed attempt included), `refactor`, true when
    the step factored the Hessian afresh, and `fallback`, true when no
    shift gave a descent direction and the step went along the negative
    gradient.
    """
    mesh = con.mesh
    z = z0.copy()
    trace = []
    u = con.expand(z)
    E = energy(mesh, u, p, eps)
    w = _element_weights(mesh, u, p, eps)
    g = con.grad(u, p, eps, w)
    g2_prev = None
    for it in range(cfg.max_iter):
        gnorm = float(np.max(np.abs(g)))
        if it == 0 or not stage_rtol:
            S, rho = con.stop_scales(u, w)
            tol = max(stage_rtol * gnorm, cfg.newton_tol * S,
                      64.0 * float(np.finfo(float).eps) * rho)
        entry = {"iter": it, "residual": gnorm, "energy": E, "tol": tol, "t": 0.0,
                 "lam": 0.0, "cg": 0, "refactor": False, "fallback": False}
        trace.append(entry)
        if gnorm <= tol:
            return z, trace
        H = con.hess(u, p, eps, w)
        g2 = float(np.linalg.norm(g))
        eta = ETA_MAX
        if g2_prev is not None:
            eta = min(ETA_MAX, max(ETA_MIN, 0.9 * (g2 / g2_prev) ** 2, 0.5 * tol / g2))
        g2_prev = g2
        dz = None
        if factor[0] is not None:
            dz, entry["cg"] = _pcg(H, g, factor[0], eta)
        if dz is None:
            factor[0] = None  # release the old factor before making a new one
            dz, entry["lam"], factor[0] = _newton_direction(H, g)
            entry["refactor"] = True
        if dz is None:
            entry["fallback"] = True
            dz = -g  # steepest descent fallback
        slope = float(g @ dz)
        t = 1.0
        for _ in range(ARMIJO_MAX_BACKTRACKS):
            z_try = z + t * dz
            u_try = con.expand(z_try)
            E_try = energy(mesh, u_try, p, eps)
            if E_try <= E + ARMIJO_C1 * t * slope or E_try <= E * (1 + 1e-15):
                break
            t *= ARMIJO_SHRINK
        else:
            raise SolverError(
                f"line search failed at iter {it} (p={p}, residual {gnorm:.3e})",
                trace,
            )
        entry["t"] = t
        z, u, E = z_try, u_try, E_try
        w = _element_weights(mesh, u, p, eps)
        g = con.grad(u, p, eps, w)
    gnorm = float(np.max(np.abs(g)))
    raise SolverError(
        f"Newton did not converge in {cfg.max_iter} iterations "
        f"(p={p}, residual {gnorm:.3e} vs tol {tol:.3e})",
        trace,
    )


def _domain_scale(mesh: Mesh) -> float:
    dom = mesh.domain
    if isinstance(dom, DomainSpec):
        return dom.pair.R
    if isinstance(dom, AnnulusSpec):
        return dom.r_outer - dom.r_inner
    return 1.0


def _p_ladder(p: float, cfg: SolverConfig) -> list[float]:
    if not cfg.p_continuation or p <= 2.0:
        return [p]
    ladder = [2.0]
    while ladder[-1] + cfg.p_step < p - 1e-12:
        ladder.append(ladder[-1] + cfg.p_step)
    ladder.append(p)
    return ladder


def _solve(mesh: Mesh, kind: str, datum, p: float, cfg: SolverConfig, pinned=None,
           eps: float | None = None) -> DiscreteSolution:
    if p < 2.0:
        raise SolverError(f"exponent p={p} must be >= 2")
    outer_vals = datum_values(datum, mesh.nodes[mesh.nodes_with_tag(TAG_OUTER)])
    con = _build_constraints(mesh, kind, outer_vals, pinned)
    if eps is None:
        vals = outer_vals
        if kind == "prescribed" and pinned is not None:
            vals = np.concatenate([outer_vals, [v for v in pinned if v is not None]])
        span = float(np.max(vals) - np.min(vals)) if len(vals) else 0.0
        if kind == "linear-aux" and pinned in ("v1", "v2"):
            span = 1.0
        eps = cfg.eps_scale * span / _domain_scale(mesh)

    z = np.zeros(con.n_dof)
    trace_all = []
    factor = [None]  # the last factor, kept across p-stages as the CG preconditioner
    ladder = _p_ladder(p, cfg)
    for pk in ladder:
        rtol = 0.0 if pk == ladder[-1] else STAGE_RTOL
        z, trace = _newton(con, pk, eps, z, cfg, factor, rtol)
        trace_all.extend([{**t, "p": pk} for t in trace])
    sol = DiscreteSolution(
        mesh=mesh,
        u=con.expand(z),
        kind=kind,
        p=p,
        eps=eps,
        energy=trace_all[-1]["energy"],  # at the converged z; the last stage is at p
        trace=trace_all,
        config=cfg,
        newton_iters=len(trace_all),
    )
    if kind == "floating":
        sol.T1 = float(z[con.dof_T1])
        sol.T2 = float(z[con.dof_T2])
    elif kind == "tied":
        sol.T1 = sol.T2 = float(z[con.dof_T1])
    elif kind == "prescribed" and pinned is not None:
        sol.T1 = pinned[0]
        sol.T2 = pinned[1]
    return sol


def _datum(mesh: Mesh, datum, kind: str):
    """The caller's datum, else the two-particle domain's applied datum."""
    if datum is not None:
        return datum
    if isinstance(mesh.domain, DomainSpec):
        return mesh.domain.boundary_datum
    raise SolverError(
        f"{kind} solve needs a boundary datum: the mesh has no two-particle domain "
        f"(domain is {type(mesh.domain).__name__}; a mesh read by load_mesh_text "
        "has none), so pass datum="
    )


def solve_floating(mesh: Mesh, p: float = 2.0, config: SolverConfig | None = None,
                   datum=None) -> DiscreteSolution:
    """Minimizer with one free potential per particle.

    Each particle's net flux vanishes as the natural condition of
    minimizing over its constant; both floating values obey the discrete
    maximum principle (they are convex combinations of the datum range).
    """
    cfg = config or SolverConfig()
    return _solve(mesh, "floating", _datum(mesh, datum, "floating"), p, cfg)


def solve_tied(mesh: Mesh, p: float = 2.0, config: SolverConfig | None = None,
               datum=None) -> DiscreteSolution:
    """Minimizer with a single constant shared by both particles."""
    cfg = config or SolverConfig()
    return _solve(mesh, "tied", _datum(mesh, datum, "tied"), p, cfg)


def solve_prescribed(mesh: Mesh, T1: float, T2: float | None = None,
                     p: float = 2.0, config: SolverConfig | None = None,
                     datum=None) -> DiscreteSolution:
    """Minimizer with pinned particle potentials (no flux conditions)."""
    cfg = config or SolverConfig()
    datum = _datum(mesh, datum, "prescribed")
    return _solve(mesh, "prescribed", datum, p, cfg, pinned=(T1, T2))


def solve_linear_aux(mesh: Mesh, which: str, config: SolverConfig | None = None,
                     datum=None) -> DiscreteSolution:
    """One of the three harmonic auxiliaries of the linear (p = 2) theory.

    v1: 1 on particle 1, 0 on particle 2 and the outer boundary;
    v2: the roles of the particles swapped;
    v3: 0 on both particles, the applied datum on the outer boundary.
    """
    cfg = config or SolverConfig()
    return _solve(mesh, "linear-aux", _datum(mesh, datum, "linear-aux"), 2.0, cfg,
                  pinned=which)


# -----------------------------------------------------------------------------
# post-processing
# -----------------------------------------------------------------------------


def grad_max(solution: DiscreteSolution, region: str = "all",
             neck: NeckSpec | None = None) -> tuple[float, tuple[float, float]]:
    """Maximum |grad u| over a region and the attaining element centroid.

    region is one of 'all', 'neck', 'away'; the latter two need the neck
    window (taken from the domain when not passed explicitly).
    """
    mesh = solution.mesh
    g = element_gradients(mesh, solution.u)
    mag = np.hypot(g[:, 0], g[:, 1])
    if region == "all":
        mask = np.ones(len(mag), dtype=bool)
    else:
        if neck is None:
            dom = mesh.domain
            if not isinstance(dom, DomainSpec):
                raise ValueError("neck/away regions need a two-particle domain")
            neck = NeckSpec(pair=dom.pair, w=0.25 * dom.pair.R)
        inside = neck.contains(mesh.centroids[:, 0], mesh.centroids[:, 1])
        mask = inside if region == "neck" else ~inside
        if not np.any(mask):
            return 0.0, (math.nan, math.nan)
    k = int(np.argmax(np.where(mask, mag, -1.0)))
    return float(mag[k]), (float(mesh.centroids[k, 0]), float(mesh.centroids[k, 1]))


def recovered_node_gradients(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Area-weighted nodal average of element gradients (patch recovery)."""
    g = element_gradients(mesh, u)
    w = mesh.areas
    # corner 0 of every element, then corner 1, then corner 2
    idx = mesh.triangles.T.ravel()
    n = mesh.n_nodes
    acc = np.stack(
        [np.bincount(idx, np.tile(w * g[:, i], 3), n) for i in range(2)], axis=1
    )
    wacc = np.bincount(idx, np.tile(w, 3), n)
    return acc / wacc[:, None]


def save_solution_text(solution: DiscreteSolution, path) -> None:
    """Plain-text dump: mesh records plus nodal values and a metadata header."""
    hdr = [
        f"kind {solution.kind}",
        f"p {solution.p!r}",
        f"eps {solution.eps!r}",
        f"energy {solution.energy!r}",
        f"newton_iters {solution.newton_iters}",
    ]
    if solution.T1 is not None:
        hdr.append(f"T1 {solution.T1!r}")
    if solution.T2 is not None:
        hdr.append(f"T2 {solution.T2!r}")
    save_mesh_text(solution.mesh, path, values=solution.u, header_lines=tuple(hdr))
