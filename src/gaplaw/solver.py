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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import AnnulusSpec, DomainSpec, NeckSpec
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


class SolverError(RuntimeError):
    """Raised when the Newton iteration fails to converge."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass(frozen=True)
class SolverConfig:
    """Newton / regularization parameters.

    eps_scale sets the gradient regularization eps =
    eps_scale * (max U - min U) / R_domain; p_step is the increment of
    the continuation ladder from p = 2 up to the target exponent.
    """

    newton_tol: float = 1e-12
    max_iter: int = 80
    eps_scale: float = 1e-8
    p_step: float = 0.5
    armijo_c1: float = 1e-4
    armijo_shrink: float = 0.5
    armijo_max_backtracks: int = 50
    p_continuation: bool = True


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


def _grad_full(mesh: Mesh, u: np.ndarray, p: float, eps: float) -> np.ndarray:
    g = element_gradients(mesh, u)
    s = eps * eps + np.einsum("ei,ei->e", g, g)
    w = mesh.areas * p * s ** (0.5 * p - 1.0)
    contrib = np.einsum("e,eik,ei->ek", w, mesh.grads, g)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, mesh.triangles, contrib)
    return out


def _hess_full(mesh: Mesh, u: np.ndarray, p: float, eps: float) -> sp.csr_matrix:
    g = element_gradients(mesh, u)
    s = eps * eps + np.einsum("ei,ei->e", g, g)
    w1 = mesh.areas * p * s ** (0.5 * p - 1.0)
    # where the gradient vanishes the rank-one term is zero anyway; guard
    # the negative power so 0 * inf does not poison the assembly
    s_safe = np.where(s > 0.0, s, 1.0)
    w2 = mesh.areas * p * (p - 2.0) * s_safe ** (0.5 * p - 2.0)
    bg = np.einsum("eik,ei->ek", mesh.grads, g)  # (m, 3)
    hloc = w1[:, None, None] * np.einsum("eik,eil->ekl", mesh.grads, mesh.grads)
    hloc += w2[:, None, None] * np.einsum("ek,el->ekl", bg, bg)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    H = sp.coo_matrix((hloc.ravel(), (rows, cols)), shape=(mesh.n_nodes,) * 2)
    return H.tocsr()


# -----------------------------------------------------------------------------
# constraint structure
# -----------------------------------------------------------------------------


@dataclass
class _Constraints:
    """Reduction u = P z + u_fix from nodal values to free unknowns."""

    P: sp.csr_matrix
    u_fix: np.ndarray
    dof_T1: int | None = None
    dof_T2: int | None = None

    def expand(self, z: np.ndarray) -> np.ndarray:
        return self.P @ z + self.u_fix

    def reduce_grad(self, g: np.ndarray) -> np.ndarray:
        return self.P.T @ g

    def reduce_hess(self, H: sp.csr_matrix) -> sp.csr_matrix:
        return (self.P.T @ H @ self.P).tocsr()


def _outer_values(mesh: Mesh, datum) -> tuple[np.ndarray, np.ndarray]:
    idx = mesh.nodes_with_tag(TAG_OUTER)
    vals = np.array([datum(float(x), float(y)) for x, y in mesh.nodes[idx]])
    return idx, vals


def _build_constraints(mesh: Mesh, kind: str, datum, pinned=None) -> _Constraints:
    n = mesh.n_nodes
    u_fix = np.zeros(n)
    outer_idx, outer_vals = _outer_values(mesh, datum)
    u_fix[outer_idx] = outer_vals
    p1 = mesh.nodes_with_tag(TAG_P1)
    p2 = mesh.nodes_with_tag(TAG_P2)
    interior = mesh.nodes_with_tag(TAG_INTERIOR)

    rows, cols = [], []
    ncol = 0

    def add_block(node_idx):
        nonlocal ncol
        rows.extend(node_idx)
        cols.extend(range(ncol, ncol + len(node_idx)))
        ncol += len(node_idx)

    def add_merged(node_idx):
        nonlocal ncol
        rows.extend(node_idx)
        cols.extend([ncol] * len(node_idx))
        ncol += 1
        return ncol - 1

    add_block(interior)
    dof1 = dof2 = None
    if kind == "floating":
        if len(p1) == 0 or len(p2) == 0:
            raise SolverError("floating solve needs both particles")
        dof1 = add_merged(p1)
        dof2 = add_merged(p2)
    elif kind == "tied":
        if len(p1) == 0 or len(p2) == 0:
            raise SolverError("tied solve needs both particles")
        dof1 = dof2 = add_merged(np.concatenate([p1, p2]))
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

    P = sp.coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n, ncol)
    ).tocsr()
    return _Constraints(P=P, u_fix=u_fix, dof_T1=dof1, dof_T2=dof2)


# -----------------------------------------------------------------------------
# Newton driver
# -----------------------------------------------------------------------------


def _newton(mesh, con, p, eps, z0, cfg: SolverConfig):
    z = z0.copy()
    trace = []
    # residual scale: gradient at the zero-interior lift state, a fixed
    # problem-intrinsic magnitude (independent of the continuation seed)
    gref = float(
        np.max(np.abs(con.reduce_grad(_grad_full(mesh, con.u_fix, p, eps))), initial=0.0)
    )
    tol = cfg.newton_tol * max(gref, 1e-300)
    noise_floor = 64.0 * np.finfo(float).eps * max(gref, 1e-300)
    u = con.expand(z)
    g = con.reduce_grad(_grad_full(mesh, u, p, eps))
    E = energy(mesh, u, p, eps)
    for it in range(cfg.max_iter):
        gnorm = float(np.max(np.abs(g)))
        trace.append({"iter": it, "residual": gnorm, "energy": E})
        if gnorm <= max(tol, noise_floor):
            return z, trace
        H = con.reduce_hess(_hess_full(mesh, u, p, eps))
        dz = None
        lam = 0.0
        diag = H.diagonal()
        shift = float(np.mean(np.abs(diag))) if len(diag) else 1.0
        for _ in range(8):
            Hk = H if lam == 0.0 else H + lam * sp.eye(H.shape[0], format="csr")
            try:
                cand = spla.spsolve(Hk.tocsc(), -g)
            except Exception:
                cand = None
            if cand is not None and np.all(np.isfinite(cand)) and float(g @ cand) < 0.0:
                dz = cand
                break
            # Hessian singular or direction non-descent: shift and retry
            lam = shift * 1e-10 if lam == 0.0 else lam * 10.0
        if dz is None:
            dz = -g  # steepest descent fallback
        slope = float(g @ dz)
        t = 1.0
        accepted = False
        for _ in range(cfg.armijo_max_backtracks):
            z_try = z + t * dz
            u_try = con.expand(z_try)
            E_try = energy(mesh, u_try, p, eps)
            if E_try <= E + cfg.armijo_c1 * t * slope or E_try <= E * (1 + 1e-15):
                accepted = True
                break
            t *= cfg.armijo_shrink
        if not accepted:
            raise SolverError(
                f"line search failed at iter {it} (p={p}, residual {gnorm:.3e})",
                trace,
            )
        z = z + t * dz
        u = con.expand(z)
        E = energy(mesh, u, p, eps)
        g = con.reduce_grad(_grad_full(mesh, u, p, eps))
    gnorm = float(np.max(np.abs(g)))
    raise SolverError(
        f"Newton did not converge in {cfg.max_iter} iterations "
        f"(p={p}, residual {gnorm:.3e} vs tol {tol:.3e})",
        trace,
    )


def _datum_range(mesh: Mesh, datum) -> float:
    _, vals = _outer_values(mesh, datum)
    return float(np.max(vals) - np.min(vals)) if len(vals) else 0.0


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
    con = _build_constraints(mesh, kind, datum, pinned)
    if eps is None:
        span = _datum_range(mesh, datum)
        if kind == "prescribed" and pinned is not None:
            vals = [v for v in pinned if v is not None]
            _, outer_vals = _outer_values(mesh, datum)
            allv = np.concatenate([outer_vals, np.asarray(vals, dtype=float)])
            span = float(np.max(allv) - np.min(allv))
        if kind == "linear-aux" and pinned in ("v1", "v2"):
            span = 1.0
        eps = cfg.eps_scale * span / _domain_scale(mesh)

    z = np.zeros(con.P.shape[1])
    trace_all = []
    for pk in _p_ladder(p, cfg):
        z, trace = _newton(mesh, con, pk, eps, z, cfg)
        trace_all.extend([{**t, "p": pk} for t in trace])
    u = con.expand(z)
    sol = DiscreteSolution(
        mesh=mesh,
        u=u,
        kind=kind,
        p=p,
        eps=eps,
        energy=energy(mesh, u, p, eps),
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


def solve_floating(mesh: Mesh, p: float = 2.0, config: SolverConfig | None = None,
                   datum=None) -> DiscreteSolution:
    """Minimizer with one free potential per particle.

    Each particle's net flux vanishes as the natural condition of
    minimizing over its constant; both floating values obey the discrete
    maximum principle (they are convex combinations of the datum range).
    """
    cfg = config or SolverConfig()
    datum = datum or mesh.domain.boundary_datum
    return _solve(mesh, "floating", datum, p, cfg)


def solve_tied(mesh: Mesh, p: float = 2.0, config: SolverConfig | None = None,
               datum=None) -> DiscreteSolution:
    """Minimizer with a single constant shared by both particles."""
    cfg = config or SolverConfig()
    datum = datum or mesh.domain.boundary_datum
    return _solve(mesh, "tied", datum, p, cfg)


def solve_prescribed(mesh: Mesh, T1: float, T2: float | None = None,
                     p: float = 2.0, config: SolverConfig | None = None,
                     datum=None) -> DiscreteSolution:
    """Minimizer with pinned particle potentials (no flux conditions)."""
    cfg = config or SolverConfig()
    datum = datum or (mesh.domain.boundary_datum if isinstance(mesh.domain, DomainSpec)
                      else None)
    if datum is None:
        raise SolverError("prescribed solve needs a boundary datum")
    return _solve(mesh, "prescribed", datum, p, cfg, pinned=(T1, T2))


def solve_linear_aux(mesh: Mesh, which: str, config: SolverConfig | None = None,
                     datum=None) -> DiscreteSolution:
    """One of the three harmonic auxiliaries of the linear (p = 2) theory.

    v1: 1 on particle 1, 0 on particle 2 and the outer boundary;
    v2: the roles of the particles swapped;
    v3: 0 on both particles, the applied datum on the outer boundary.
    """
    cfg = config or SolverConfig()
    datum = datum or mesh.domain.boundary_datum
    return _solve(mesh, "linear-aux", datum, 2.0, cfg, pinned=which)


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
    acc = np.zeros((mesh.n_nodes, 2))
    wacc = np.zeros(mesh.n_nodes)
    w = mesh.areas
    for k in range(3):
        np.add.at(acc, mesh.triangles[:, k], w[:, None] * g)
        np.add.at(wacc, mesh.triangles[:, k], w)
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
