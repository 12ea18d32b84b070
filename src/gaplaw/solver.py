"""Variational solver for the 2-D p-Laplace conductor problems.

All problem kinds minimize the regularized p-Dirichlet energy

    E(u) = sum_elements area * (eps^2 + |grad u|^2)^(p/2)

over piecewise-linear fields with the applied datum pinned on the outer
boundary, eps = EPS_SCALE * span / width read off the fixed values and the
nodes alone (so a mesh solves alike whether built or loaded from text);
they differ only in how the inclusion potentials enter:

  floating    one free constant per particle (zero net flux through each
              particle boundary becomes the natural optimality condition)
  tied        a single free constant shared by both particles (only the
              combined flux vanishes)
  prescribed  particle potentials pinned by the caller (no flux condition)

The three harmonic auxiliaries of the linear (p = 2) theory are
prescribed solves (`solve_linear_aux`); on a mirror-symmetric mesh v2 is
also v1's mirror image (`mirrored`).

Free constants are realized by merging all nodes of a particle into one
unknown, so no Lagrange multipliers are needed.  The nonlinear solve is
damped Newton with Armijo backtracking, seeded by continuation in p from
the linear p = 2 solution (the energy Hessian degenerates where the
gradient vanishes, so a good seed matters for p well above 2).

The element kernels (gradients, energy, Hessian weights, stop scales)
are per-column arithmetic on element arrays, g_x = sum_k B[:, 0, k]
u[tri[:, k]] and so on, with no einsum; Newton's element set stores its
arrays element index fastest, so each column is contiguous.  The
gradient and Hessian are assembled straight into the reduced unknowns:
a node -> unknown map and a fixed CSC pattern are built once per solve,
and each Newton step fills the pattern with one bincount over the six
distinct entries of each symmetric element matrix.  The reduced Hessian
is symmetric positive definite.  Newton is inexact: a solve keeps its
last SuperLU factor across steps and p-stages, and each step first runs
a few conjugate-gradient iterations on the current Hessian
preconditioned by that factor, stopped at the Eisenstat-Walker forcing
term (SIAM J. Sci. Comput. 17(1), 1996, choice 2).  Only when CG misses
it, meets negative curvature, gives no descent or gives a step that the
line search cannot take is the Hessian factored afresh, with SuperLU in
symmetric mode, diagonal pivots, a minimum-degree ordering of A^T + A
and the smallest supernode panels (relax = 1, panel_size = 1): the
quarter Hessian of a 19.7k-node mesh factors in about 3/4 of the time of
the default panels, with the same fill.

The two-disk mesh is symmetric under y -> -y (`Mesh.mirror`) and under
x -> -x (`Mesh.x_mirror`).  When the fixed data are exactly odd or even
under a mirror, so is the minimizer (`DiscreteSolution.parity`), and
Newton drops the half of the unknowns on the negative side of that
mirror's axis; one code path applies 0, 1 or 2 mirrors.  The sums run
over the elements with no vertex in a dropped half-plane, their areas
scaled by the orbit size 2^k, and `_Constraints.expand` rebuilds the
rest by reflection, u(image) = parity * u, one mirror after the other.
Under odd data the axis and the constants that are their own image are
fixed at 0 (the symmetry reduction of a boundary-value problem;
Bossavit, Comput. Methods Appl. Mech. Engrg. 56, 1986).  The applied
datum u = y is odd in y and even in x, so the floating, tied and v3
problems run on a quarter of the unknowns; v1, v2 and the quadratic
datum are even in x only and run on a half.  A mirror whose axis some
element crosses is not used, and a general table is solved on the whole
mesh.
Post-processing (flux reports, `grad_max`, the Q functional) reads the
full mesh and the expanded field.

The Newton settings are module constants (NEWTON_TOL, MAX_ITER,
EPS_SCALE, P_STEP and those of the line search and of CG); no caller sets
them.  The continuation ladder climbs from p = 2 in steps of P_STEP = 1.
Convergence is a property of the solution at the target exponent alone:
there Newton stops on the true gradient at max|g| <= NEWTON_TOL * S, with
S the largest nodal flux magnitude (or at the rounding floor of g), so a
converged floating solve balances each particle's flux to NEWTON_TOL * S
whatever path the continuation took.  An intermediate p-stage only seeds
the next one and stops once max|g| has fallen by STAGE_RTOL.  The forcing
term is floored at half the stop threshold over ||g||_2, so no step solves
its linear system further than the stop test can see (Kelley, Iterative
Methods for Linear and Nonlinear Equations, SIAM 1995, 6.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import DomainSpec, NeckSpec, datum_values
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
    "mirrored",
    "grad_max",
    "save_solution_text",
]

# At the target exponent Newton stops at max|g| <= NEWTON_TOL * S, S the
# largest nodal flux magnitude (see `_newton`); MAX_ITER bounds the steps
# of each p-stage.
NEWTON_TOL = 1e-12
MAX_ITER = 80
# eps is 8e-8 of the mean applied field span/width: span the range of the
# fixed values, width the mesh's extent in x (2 R_out on a two-disk mesh)
EPS_SCALE = 8e-8
# The continuation ladder 2, 2 + P_STEP, ..., p.  The unit step was the
# fastest on a 19.7k-node mesh, over its floating and tied solves at p = 3
# and 6: 60 Newton steps and 17 factorizations, against 87 and 15 with
# step 0.5; 2, 4, 6 took 53 steps but 19 factorizations, since a stale
# factor preconditions CG poorly after a large jump in p.  The answer does
# not depend on the step (see `_newton`).
P_STEP = 1.0
ARMIJO_C1 = 1e-4  # sufficient-decrease constant of the backtracking line search
ARMIJO_SHRINK = 0.5  # step factor per backtrack
ARMIJO_MAX_BACKTRACKS = 50
# Inexact Newton: the forcing-term bounds and the CG budget before a
# refactor.  On the 4.3k-dof quarter Hessian of the fine p = 6 floating
# solve (19.7k nodes, 2-CPU host) a preconditioner solve takes 0.2-0.4 ms
# against 4.6-7.6 ms per factorization, so the forcing term is kept loose
# (ETA_MAX 1e-2); a tight one (1e-8) spent the saved factorizations on CG
# steps instead.  The floating and tied solves at p = 3 and 6 on that mesh
# took 0.43, 0.41-0.45, 0.39, 0.40-0.42 and 0.43-0.45 s with 26, 20-21,
# 17, 13 and 13 factorizations at CG_MAX_ITER 4, 6, 8, 12 and 16.
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
    """No settings: the Newton settings are the module constants
    NEWTON_TOL, MAX_ITER, EPS_SCALE and P_STEP.

    The class and the `config=` argument of the solve functions, which
    they ignore, remain because existing callers still pass one: the
    benchmark's workloads pass `SweepConfig.solver_config()`.
    """


@dataclass
class DiscreteSolution:
    """A converged nodal field with its constraint metadata.

    `eps` is the energy's EPS_SCALE * span / width; each `trace` entry (one
    per Newton iteration, see `_newton`) ends with its p-stage's `"p"`.
    `parity` is the character of the fixed data under the mesh's mirrors
    (y -> -y, x -> -x): for each, -1 or +1 when the solve used that mirror
    to drop half of the unknowns (odd or even fixed data, see
    `_build_constraints`), None otherwise.  `energy` is the value Newton
    accepted at the last iterate.  Without a reduction it equals
    `energy(mesh, u, p, eps)` bit for bit; with k mirrors used it is 2^k
    times the sum over the kept elements and lies within a few ulp of it.
    """

    mesh: Mesh
    u: np.ndarray
    kind: str
    p: float
    eps: float
    energy: float
    T1: float | None = None
    T2: float | None = None
    trace: list = field(default_factory=list)
    parity: tuple = (None, None)

    @property
    def newton_iters(self) -> int:
        """Trace entries of the solve, over all its p-stages (0 for `mirrored`)."""
        return len(self.trace)

    @property
    def gap(self) -> float:
        if self.T1 is None or self.T2 is None:
            raise ValueError(f"solution of kind {self.kind!r} has no potential gap")
        return self.T2 - self.T1


# -----------------------------------------------------------------------------
# energy / gradient / Hessian assembly
# -----------------------------------------------------------------------------


def _gradient_columns(mesh: Mesh, u: np.ndarray):
    """(gx, gy): the two components of the constant P1 gradient on each
    element, g_i = sum_k B[:, i, k] u[tri[:, k]]."""
    B = mesh.grads
    u0, u1, u2 = (u[mesh.triangles[:, k]] for k in range(3))
    return tuple(B[:, i, 0] * u0 + B[:, i, 1] * u1 + B[:, i, 2] * u2 for i in range(2))


def energy(mesh: Mesh, u: np.ndarray, p: float, eps: float = 0.0) -> float:
    """Regularized p-Dirichlet energy of a nodal field.

    Exact for piecewise-linear u at eps = 0 (the integrand is constant
    per element), and convex in u for p >= 2.  `mesh` may be any object
    with the mesh's `triangles`, `grads` and `areas`, as Newton's element
    set (`_Constraints.elements`) is.
    """
    gx, gy = _gradient_columns(mesh, u)
    s = eps * eps + (gx * gx + gy * gy)
    return float(np.sum(mesh.areas * s ** (0.5 * p)))


def _element_weights(mesh: Mesh, u: np.ndarray, p: float, eps: float):
    """Per-element B^T grad u, a (3, m) array with one contiguous row per
    local node, and the two Hessian weights.

    The element Hessian is w1 * B^T B + w2 * (B^T g)(B^T g)^T and the
    element gradient is w1 * B^T g, with s = eps^2 + |g|^2,
    w1 = area p s^(p/2-1) and w2 = area p (p-2) s^(p/2-2) = (p-2) w1 / s.
    """
    gx, gy = _gradient_columns(mesh, u)
    s = eps * eps + (gx * gx + gy * gy)
    w1 = mesh.areas * p * s ** (0.5 * p - 1.0)
    # where the gradient vanishes the rank-one term is zero anyway; guard
    # the division so 0 / 0 does not poison the assembly
    w2 = (p - 2.0) * w1 / np.where(s > 0.0, s, 1.0)
    B = mesh.grads
    bg = np.empty((3, len(s)))
    for k in range(3):
        np.add(B[:, 0, k] * gx, B[:, 1, k] * gy, out=bg[k])
    return bg, w1, w2


# -----------------------------------------------------------------------------
# constraint structure and reduced assembly
# -----------------------------------------------------------------------------


@dataclass(frozen=True)
class _ElementSet:
    """The element arrays the Newton sums run over: the elements of the
    kept quarter, half or whole of the mesh, areas scaled by the orbit
    size."""

    triangles: np.ndarray
    grads: np.ndarray
    areas: np.ndarray


# the six distinct entries (k, l), k <= l, of a symmetric local 3 x 3 matrix:
# the diagonal, then the three off the diagonal
_K6 = np.array([0, 1, 2, 0, 0, 1])
_L6 = np.array([0, 1, 2, 1, 2, 2])


class _Constraints:
    """Reduction u = u_fix + P z from nodal values to free unknowns.

    `dof` maps each node to its free unknown, -1 on a fixed node; all
    nodes of a floating particle share one unknown.  The gradient and
    Hessian are assembled straight into the reduced unknowns, P^T g and
    P^T H P, through scatter maps built here once and reused by every
    Newton step and p-stage, each filled by one `np.bincount`.  Element
    arrays are (3, m) or (6, m), one contiguous row per local node or
    local entry, and a local entry that touches a fixed node goes to a
    dummy slot past the last one, so no step gathers through a mask.  The
    gradient slot of local node k is its unknown.  The Hessian is summed
    from the six distinct local entries (k <= l) into one slot per
    unordered pair of unknowns, an off-diagonal entry whose two nodes
    share an unknown counted twice (it stands for (k, l) and (l, k)); the
    CSC entries (a, b) and (b, a) then read the same slot, so the matrix
    is symmetric bit for bit.

    `parity` holds the character of the fixed data under the mesh's two
    mirrors, (y -> -y, x -> -x), each -1, +1 or None when that mirror is
    not used (see `_build_constraints`).  `elements` is what the energy,
    the element weights, the gradient, the Hessian and the stop scales sum
    over: the elements with no vertex in a dropped half-plane, areas
    scaled by the orbit size 2^k of the k mirrors used (all of them, at
    2^0 = 1, when no mirror is used).  The field has the data's parities,
    so each of them adds to every sum what its images would.  No sum reads a node in a
    dropped half-plane; `expand` rebuilds the ones the reduction took out
    of the unknowns from their images, one mirror after the other
    (`reflections`: the nodes, their images and the parity, in the order
    the mirrors were applied), and the fixed ones keep their values.
    """

    def __init__(self, dof: np.ndarray, n_dof: int, u_fix: np.ndarray, elements,
                 parity: tuple, reflections: list):
        self.n_dof = n_dof
        self.u_fix = u_fix
        self.parity = parity
        self.elements = elements
        self._reflections = reflections
        grads = elements.grads
        # B^T B without the area, element index fastest: [:, k, l] is contiguous
        self._stiffness = np.asfortranarray(np.einsum("eik,eil->ekl", grads, grads))
        self._abs_b = np.abs(grads).transpose(1, 2, 0).copy()  # (2, 3, m)
        self._free = np.flatnonzero(dof >= 0)
        self._free_dof = dof[self._free]
        edof = dof[elements.triangles].T  # (3, m)
        self._g_slot = np.where(edof >= 0, edof, n_dof).ravel()
        dk, dl = edof[_K6], edof[_L6]
        lo, hi = np.minimum(dk, dl), np.maximum(dk, dl)
        # slot a holds the pair (a, a); the pairs (a, b), a < b, follow in key
        # order, and the entries that touch a fixed node go to the slot after
        diag = (lo == hi) & (lo >= 0)
        off = (lo < hi) & (lo >= 0)
        keys, inverse = np.unique(lo[off] * n_dof + hi[off], return_inverse=True)
        slot = np.full(dk.shape, n_dof + len(keys))
        slot[diag] = lo[diag]
        slot[off] = n_dof + inverse
        self._h_slot = slot.ravel()
        self._h_mult = np.where(dk[3:] == dl[3:], 2.0, 1.0)  # the off-diagonal entries
        # the CSC entries (a, a), (a, b) and (b, a), each holding its slot
        on_diag = np.zeros(n_dof, dtype=bool)
        on_diag[lo[diag]] = True
        d, a, b = np.flatnonzero(on_diag), keys // n_dof, keys % n_dof
        pair = np.arange(n_dof, n_dof + len(keys))
        pattern = sp.coo_matrix((np.concatenate([d, pair, pair]),
                                 (np.concatenate([d, a, b]), np.concatenate([d, b, a]))),
                                shape=(n_dof, n_dof)).tocsc()
        self._h_pair, self._h_indices, self._h_indptr = pattern.data, pattern.indices, pattern.indptr

    def expand(self, z: np.ndarray) -> np.ndarray:
        u = self.u_fix.copy()
        u[self._free] = z[self._free_dof]
        # the last mirror applied first: its images lie in the part kept
        # by the ones before it
        for nodes, images, parity in reversed(self._reflections):
            u[nodes] = parity * u[images]
        return u

    def _scatter(self, a: np.ndarray) -> np.ndarray:
        """Sum a (3, m) array of local-node terms into the unknowns."""
        return np.bincount(self._g_slot, a.ravel(), self.n_dof + 1)[:self.n_dof]

    def grad(self, weights) -> np.ndarray:
        """Reduced gradient of the energy at the nodal field u, from its
        `_element_weights(self.elements, u, p, eps)`."""
        bg, w1, _ = weights
        return self._scatter(w1 * bg)

    def stop_scales(self, u: np.ndarray, weights) -> tuple[float, float]:
        """(S, rho) of the stop test at the nodal field u, from its
        `_element_weights`.  S = max over dofs of sum_e |w1 B^T g|_e is the
        largest nodal flux magnitude; rho = max over dofs of
        sum_e w1 |B|^T |B| |u_e| bounds the rounding error of the reduced
        gradient, a floor no iterate gets below (it decides where S is
        about 0, as on a constant field).  Both sum over every node of an
        unknown, and under a mirror reduction the scaled areas count a
        node's images too, as its gradient entry does."""
        bg, w1, _ = weights  # w1 > 0
        flux = np.abs(bg)
        flux *= w1
        abs_b = self._abs_b
        au = [np.abs(u[self.elements.triangles[:, k]]) for k in range(3)]
        a0, a1 = (abs_b[i, 0] * au[0] + abs_b[i, 1] * au[1] + abs_b[i, 2] * au[2]
                  for i in range(2))
        bound = abs_b[0] * a0
        bound += abs_b[1] * a1
        bound *= w1
        return tuple(float(np.max(self._scatter(a), initial=0.0)) for a in (flux, bound))

    def hess(self, weights) -> sp.csc_matrix:
        """Reduced Hessian of the energy at the nodal field u (symmetric,
        CSC), from its element weights as for `grad`: entry (k, l) of an
        element is w1 S_kl + w2 b_k b_l, with S = B^T B and b = B^T g."""
        bg, w1, w2 = weights
        st = self._stiffness
        h = np.empty((6, len(w1)))
        for j, (k, l) in enumerate(zip(_K6, _L6)):
            np.multiply(w1, st[:, k, l], out=h[j])
        h += w2 * (bg[_K6] * bg[_L6])
        h[3:] *= self._h_mult
        data = np.bincount(self._h_slot, h.ravel())  # the dummy slot last, if any
        return sp.csc_matrix((data[self._h_pair], self._h_indices, self._h_indptr),
                             shape=(self.n_dof, self.n_dof))


def _build_constraints(mesh: Mesh, kind: str, outer_vals: np.ndarray,
                       pinned=None) -> _Constraints:
    """Fixed values and the node -> unknown map; `outer_vals` is the
    applied datum at the outer-boundary nodes, in tag order.

    The mesh's mirrors are tried in turn, y -> -y (`Mesh.mirror`) and then
    x -> -x (`Mesh.x_mirror`), and each one is used when it exists, no
    element of the part kept so far crosses its axis, and the fixed
    values are odd (parity -1) or even (+1) under it.  Then the minimizer
    has that parity too, since the energy is strictly convex and invariant
    under u -> parity * (u composed with the mirror).  The nodes in the
    negative half-plane (below the x-axis, or left of the y-axis) leave the
    unknowns, particle 1 among them under y -> -y, and are reflected from
    their images (`_Constraints.expand`).  Under odd data the unknowns that
    are their own image are fixed at 0: those of the nodes on the axis,
    and the tied constant under y -> -y or a particle's constant under
    x -> -x.  With both mirrors Newton solves on the quarter x >= 0,
    y >= 0.
    """
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
    if kind == "floating":
        if len(p1) == 0 or len(p2) == 0:
            raise SolverError("floating solve needs both particles")
        dof[p1], dof[p2] = n_dof, n_dof + 1
        n_dof += 2
    elif kind == "tied":
        if len(p1) == 0 or len(p2) == 0:
            raise SolverError("tied solve needs both particles")
        dof[p1] = dof[p2] = n_dof
        n_dof += 1
    else:  # prescribed
        T1, T2 = pinned
        if len(p1):
            u_fix[p1] = T1
        if len(p2):
            if T2 is None:
                raise SolverError("prescribed solve with particle 2 needs T2")
            u_fix[p2] = T2

    parity, reflections = [], []
    kept = np.ones(mesh.n_triangles, dtype=bool)
    tri = mesh.triangles
    for axis, mirror in ((1, mesh.mirror), (0, mesh.x_mirror)):
        dropped = mesh.nodes[:, axis] < 0.0
        half = kept & ~(dropped[tri[:, 0]] | dropped[tri[:, 1]] | dropped[tri[:, 2]])
        character = _parity(mirror, u_fix, np.count_nonzero(kept), np.count_nonzero(half))
        parity.append(character)
        if character is None:
            continue
        if character < 0:
            own = (dof >= 0) & (dof[mirror] == dof)
            odd = np.zeros(n_dof + 1, dtype=bool)  # the last entry stands for dof -1
            odd[dof[own]] = True
            dof[odd[dof]] = -1
        reflected = np.flatnonzero(dropped & (dof >= 0))
        reflections.append((reflected, mirror[reflected], character))
        dof[dropped] = -1
        kept = half
    # element index fastest, so that each column the kernels read is contiguous
    elements = _ElementSet(triangles=np.asfortranarray(mesh.triangles[kept]),
                           grads=np.asfortranarray(mesh.grads[kept]),
                           areas=2.0 ** len(reflections) * mesh.areas[kept])
    free = dof >= 0
    used = np.zeros(n_dof, dtype=bool)
    used[dof[free]] = True
    dof[free] = (np.cumsum(used) - 1)[dof[free]]  # renumbered 0, 1, ... in order
    return _Constraints(dof, np.count_nonzero(used), u_fix, elements, tuple(parity), reflections)


def _parity(mirror, u_fix: np.ndarray, n_elements: int, n_half: int) -> int | None:
    """-1 when the fixed values are exactly odd under `mirror`, +1 when
    exactly even; None when neither holds, when there is no mirror or
    when an element crosses its axis.  Of the `n_elements` elements the
    reduction sums over so far, `n_half` have no vertex in the half-plane
    the mirror would drop; the mirror pairs them with those that have no
    vertex in the other, so they are half exactly when none crosses."""
    if mirror is None or 2 * n_half != n_elements:
        return None
    for parity in (-1, 1):
        if np.array_equal(u_fix[mirror], parity * u_fix):
            return parity
    return None


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
            # ordering is about a third of a factorization: on the last
            # 4.3k-dof quarter Hessian of the fine p = 6 floating solve
            # (2-CPU host) this call takes 6.3-6.7 ms, while NATURAL on
            # H[q][:, q], q = argsort(perm_c), takes 4.4-4.9 ms plus 0.5 ms
            # to permute, at the same fill (104,330 nnz in L + U).  Reusing
            # an order is not bitwise neutral: the p = 3 ladder's floating
            # T1 at delta = 0.005 moves in its last bit.
            # Diagonal pivots suffice for SPD; the default threshold 1.0
            # swapped rows on a near-singular tied Hessian and gave a
            # poorer direction there (7 extra Newton steps at p = 4.5).
            lu = spla.splu(Hk, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           relax=1, panel_size=1, options={"SymmetricMode": True})
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


def _line_search(con: _Constraints, p, eps, z, E, g, dz, fresh):
    """Armijo backtracking from z along the descent direction dz: (t, z, u,
    E) at the accepted step, None when ARMIJO_MAX_BACKTRACKS halvings find
    no decrease (a trial energy within rounding of E is accepted).  The
    energy is convex along the line and finite at z, so only the full step
    can overflow (a huge step at large p).  A `fresh` (factored) direction
    backtracks from that inf; a CG direction is given up at once."""
    slope = float(g @ dz)
    t = 1.0
    for _ in range(ARMIJO_MAX_BACKTRACKS):
        z_try = z + t * dz
        u_try = con.expand(z_try)
        with np.errstate(over="ignore"):
            E_try = energy(con.elements, u_try, p, eps)
        if E_try <= E + ARMIJO_C1 * t * slope or E_try <= E * (1 + 1e-15):
            return t, z_try, u_try, E_try
        if not (fresh or math.isfinite(E_try)):
            return None
        t *= ARMIJO_SHRINK
    return None


def _newton(con: _Constraints, p, eps, span, z0, factor: list, trace: list, stage_rtol=0.0):
    """Damped Newton from z0 at one exponent; returns z, and appends an
    entry per iteration to `trace`, the solve's trace over all p-stages.
    Fixed values too large for this p overflow the energy or the norm of
    its gradient: an energy at z0 or a gradient norm that is not finite
    raises SolverError naming p and `span`, the fixed values' range.

    The stop test is max|g| <= tol with tol = max(stage_rtol * r0,
    NEWTON_TOL * S, 64 eps_mach * rho), where r0 is max|g| at z0 and
    S and rho are `_Constraints.stop_scales`, the nodal flux magnitude and
    the rounding bound of g.  At the target p (stage_rtol = 0) they are
    taken at every iterate, which makes the answer a property of that p
    alone.  An intermediate p-stage only seeds the next one: it passes
    stage_rtol = STAGE_RTOL, and its threshold is fixed at z0, where the
    S and rho terms let a stage that starts at the rounding floor (a
    constant field) stop at once.  Under a mirror reduction the scaled
    areas make the gradient entry of a node count its images too, and
    S and rho alike, so g and S scale together and the test stays relative
    to the same nodal fluxes.

    `factor` is a one-element list holding the last SuperLU factor of the
    solve (None before the first), possibly made at an earlier p-stage.
    Each step first solves H dz = -g by `_pcg` preconditioned with it, to
    the Eisenstat-Walker forcing term eta_k = min(ETA_MAX,
    0.9 (||g_k|| / ||g_k-1||)^2), floored at ETA_MIN and at
    0.5 tol / ||g_k||, so that the last step does not solve past tol
    (eta_0 = ETA_MAX).  When CG misses, or no factor is held yet, the old
    factor is released and `_newton_direction` factors H afresh; the new
    factor replaces it in `factor`, which is the only reference the solve
    keeps, so two factors are never held at once.  So is a CG step whose
    line search fails (at large p a stale factor can give one along which
    no halving lowers the energy beyond its rounding, or one whose full
    step overflows it).  SolverError, with the whole trace so far, is
    raised only when the search along a fresh factor fails, or when the
    iterate reached by the MAX_ITER-th step fails the stop test.

    Each trace entry holds the residual, the energy and `tol`, the
    threshold of the stop test, at the start of the iteration, then the
    accepted step length `t` (0 when no step was taken), the Hessian shift
    `lam` of this step's factorization (0 when CG gave the step), `cg`, the
    CG iterations spent (a missed or dropped attempt included), `refactor`,
    true when the step factored the Hessian afresh, `dropped`, true when
    CG gave a step whose line search failed (so the step factored afresh
    too), `fallback`, true when no shift gave a descent direction and the
    step went along the negative gradient, and last the stage's `p`.
    """
    elements = con.elements
    z = z0.copy()
    u = con.expand(z)
    with np.errstate(over="ignore", invalid="ignore"):
        E = energy(elements, u, p, eps)
    if not math.isfinite(E):
        raise SolverError(f"the energy overflows at the start of the p={p} stage "
                          f"(the fixed values span {span:.6g})", trace)
    w = _element_weights(elements, u, p, eps)
    g = con.grad(w)
    g2_prev = None
    for it in range(MAX_ITER + 1):
        gnorm = float(np.max(np.abs(g)))
        if it == 0 or not stage_rtol:
            S, rho = con.stop_scales(u, w)
            tol = max(stage_rtol * gnorm, NEWTON_TOL * S,
                      64.0 * float(np.finfo(float).eps) * rho)
        entry = {"iter": it, "residual": gnorm, "energy": E, "tol": tol, "t": 0.0, "lam": 0.0,
                 "cg": 0, "refactor": False, "dropped": False, "fallback": False, "p": p}
        trace.append(entry)
        if gnorm <= tol:
            return z
        if it == MAX_ITER:
            raise SolverError(
                f"Newton did not converge in {MAX_ITER} iterations "
                f"(p={p}, residual {gnorm:.3e} vs tol {tol:.3e})",
                trace,
            )
        H = con.hess(w)
        with np.errstate(over="ignore"):
            g2 = float(np.linalg.norm(g))
        if not math.isfinite(g2):
            raise SolverError(f"the gradient norm overflows at iter {it} (p={p}, the fixed "
                              f"values span {span:.6g})", trace)
        eta = ETA_MAX
        if g2_prev is not None:
            eta = min(ETA_MAX, max(ETA_MIN, 0.9 * (g2 / g2_prev) ** 2, 0.5 * tol / g2))
        g2_prev = g2
        step = None
        if factor[0] is not None:
            dz, entry["cg"] = _pcg(H, g, factor[0], eta)
            if dz is not None:
                step = _line_search(con, p, eps, z, E, g, dz, fresh=False)
                entry["dropped"] = step is None
        if step is None:
            factor[0] = None  # release the old factor before making a new one
            dz, entry["lam"], factor[0] = _newton_direction(H, g)
            entry["refactor"] = True
            if dz is None:
                entry["fallback"] = True
                dz = -g  # steepest descent fallback
            step = _line_search(con, p, eps, z, E, g, dz, fresh=True)
        if step is None:
            raise SolverError(
                f"line search failed at iter {it} (p={p}, residual {gnorm:.3e})",
                trace,
            )
        entry["t"], z, u, E = step
        w = _element_weights(elements, u, p, eps)
        g = con.grad(w)


def _p_ladder(p: float) -> list[float]:
    if p <= 2.0:
        return [p]
    ladder = [2.0]
    while ladder[-1] + P_STEP < p - 1e-12:
        ladder.append(ladder[-1] + P_STEP)
    ladder.append(p)
    return ladder


def _solve(mesh: Mesh, kind: str, datum, p: float, pinned=None) -> DiscreteSolution:
    if not math.isfinite(p):
        raise SolverError(f"exponent p={p} must be finite")
    if p < 2.0:
        raise SolverError(f"exponent p={p} must be >= 2")
    outer_vals = datum_values(datum, mesh.nodes[mesh.nodes_with_tag(TAG_OUTER)])
    fixed = {f"T{k}": v for k, v in enumerate(pinned or (), 1) if v is not None}
    bad = [f"{name}={v}" for name, v in fixed.items() if not math.isfinite(v)]
    if not np.isfinite(outer_vals).all():
        bad.append("the datum on the outer boundary")
    if bad:
        raise SolverError(f"fixed values must be finite: {', '.join(bad)}")
    vals = np.concatenate([outer_vals, list(fixed.values())])
    # as Python floats, so an overflow gives inf without a RuntimeWarning
    span = float(np.max(vals)) - float(np.min(vals)) if len(vals) else 0.0
    if not math.isfinite(span):
        raise SolverError(f"the span of the fixed values overflows (p={p}, span {span})")
    con = _build_constraints(mesh, kind, outer_vals, pinned)
    eps = EPS_SCALE * span / float(np.ptp(mesh.nodes[:, 0]))

    z = np.zeros(con.n_dof)
    trace = []
    factor = [None]  # the last factor, kept across p-stages as the CG preconditioner
    ladder = _p_ladder(p)
    for pk in ladder:
        rtol = 0.0 if pk == ladder[-1] else STAGE_RTOL
        z = _newton(con, pk, eps, span, z, factor, trace, rtol)
    u = con.expand(z)
    sol = DiscreteSolution(
        mesh=mesh,
        u=u,
        kind=kind,
        p=p,
        eps=eps,
        energy=trace[-1]["energy"],  # at the converged z; the last stage is at p
        trace=trace,
        parity=con.parity,
    )
    p1, p2 = mesh.nodes_with_tag(TAG_P1), mesh.nodes_with_tag(TAG_P2)
    if len(p1):
        sol.T1 = float(u[p1[0]])
    if len(p2):
        sol.T2 = float(u[p2[0]])
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
    `config` is ignored (see `SolverConfig`), as in every solve function.
    `datum` is the caller's, else the domain's; given it, a loaded mesh
    solves bit for bit like the saved one.  SolverError carries the trace.
    """
    return _solve(mesh, "floating", _datum(mesh, datum, "floating"), p)


def solve_tied(mesh: Mesh, p: float = 2.0, config: SolverConfig | None = None,
               datum=None) -> DiscreteSolution:
    """Minimizer with a single constant shared by both particles."""
    return _solve(mesh, "tied", _datum(mesh, datum, "tied"), p)


def solve_prescribed(mesh: Mesh, T1: float, T2: float | None = None,
                     p: float = 2.0, config: SolverConfig | None = None,
                     datum=None) -> DiscreteSolution:
    """Minimizer with pinned particle potentials (no flux conditions)."""
    datum = _datum(mesh, datum, "prescribed")
    return _solve(mesh, "prescribed", datum, p, pinned=(T1, T2))


def _zero_datum(x, y):
    return 0.0


# which -> (T1, T2, datum): the caller's datum where None
_LINEAR_AUX = {"v1": (1.0, 0.0, _zero_datum), "v2": (0.0, 1.0, _zero_datum),
               "v3": (0.0, 0.0, None)}


def solve_linear_aux(mesh: Mesh, which: str, config: SolverConfig | None = None,
                     datum=None) -> DiscreteSolution:
    """One of the three harmonic auxiliaries of the linear (p = 2) theory,
    as a prescribed solve at p = 2.

    v1: 1 on particle 1, 0 on particle 2 and the outer boundary;
    v2: the roles of the particles swapped;
    v3: 0 on both particles, the applied datum on the outer boundary.

    Only v3 reads a datum (the caller's, else the domain's).
    """
    if which not in _LINEAR_AUX:
        raise SolverError(f"unknown auxiliary problem {which!r}")
    T1, T2, fixed = _LINEAR_AUX[which]
    return solve_prescribed(mesh, T1, T2, p=2.0, datum=fixed or datum)


def mirrored(solution: DiscreteSolution) -> DiscreteSolution:
    """The solution composed with the mesh's mirror y -> -y.

    The mirror swaps the particles, so the image of v1 is v2: the problem
    with the particle potentials swapped and the mirrored datum (zero for
    both).  The image keeps `p`, `eps`, `energy` and `parity`;
    its trace is empty, since no Newton ran.  Raises
    SolverError when the mesh has no mirror.
    """
    mirror = solution.mesh.mirror
    if mirror is None:
        raise SolverError("mirrored needs a mesh with a mirror map (Mesh.mirror)")
    return DiscreteSolution(
        mesh=solution.mesh, u=solution.u[mirror], kind=solution.kind, p=solution.p,
        eps=solution.eps, energy=solution.energy, T1=solution.T2, T2=solution.T1,
        parity=solution.parity,
    )


# -----------------------------------------------------------------------------
# post-processing
# -----------------------------------------------------------------------------


def grad_max(solution: DiscreteSolution, region: str = "all",
             neck: NeckSpec | None = None) -> tuple[float, tuple[float, float]]:
    """Maximum |grad u| over a region and the attaining element centroid.

    region is one of 'all', 'neck', 'away' (anything else raises
    ValueError); the latter two need the neck window `neck`, and raise
    ValueError without it.
    """
    if region not in ("all", "neck", "away"):
        raise ValueError(f"unknown region {region!r}: expected 'all', 'neck' or 'away'")
    if region != "all" and neck is None:
        raise ValueError(f"region {region!r} needs the neck window: pass neck=")
    mesh = solution.mesh
    mag = np.hypot(*_gradient_columns(mesh, solution.u))
    if region == "all":
        mask = np.ones(len(mag), dtype=bool)
    else:
        inside = neck.contains(mesh.centroids[:, 0], mesh.centroids[:, 1])
        mask = inside if region == "neck" else ~inside
        if not np.any(mask):
            return 0.0, (math.nan, math.nan)
    k = int(np.argmax(np.where(mask, mag, -1.0)))
    return float(mag[k]), (float(mesh.centroids[k, 0]), float(mesh.centroids[k, 1]))


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
