import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gaplaw.barriers import fit_two_point, radial_eval
from gaplaw.flux import flux_report, r_delta
from gaplaw.geometry import AnnulusSpec, DomainSpec, NeckSpec, ParticlePair
from gaplaw.mesh import TAG_INTERIOR, TAG_OUTER, TAG_P1, TAG_P2, build_annulus_mesh, build_mesh
import gaplaw.solver as solver
from gaplaw.solver import (
    SolverConfig,
    SolverError,
    element_gradients,
    energy,
    grad_max,
    recovered_node_gradients,
    save_solution_text,
    solve_floating,
    solve_linear_aux,
    solve_prescribed,
    solve_tied,
)
from gaplaw.mesh import load_mesh_text, save_mesh_text


@pytest.fixture(scope="module")
def two_disk():
    dom = DomainSpec(pair=ParticlePair(R=1.0, delta=0.04), R_out=4.0)
    return build_mesh(dom)


@pytest.fixture(scope="module")
def floating_p2(two_disk):
    return solve_floating(two_disk, p=2.0)


@pytest.fixture(scope="module")
def narrow_gap():
    return build_mesh(DomainSpec(pair=ParticlePair(R=1.0, delta=0.01), R_out=4.0))


class TestEnergy:
    def test_constant_field_zero(self, two_disk):
        u = np.full(two_disk.n_nodes, 1.7)
        # exact up to the rounding of the per-element gradient cancellation
        assert energy(two_disk, u, p=2.0, eps=0.0) <= 1e-24

    @pytest.mark.parametrize("p,expected", [(2.0, None), (4.0, None)])
    def test_linear_field(self, two_disk, p, expected):
        a, b = 0.7, -0.3
        u = a * two_disk.nodes[:, 0] + b * two_disk.nodes[:, 1]
        area = float(np.sum(two_disk.areas))
        got = energy(two_disk, u, p=p, eps=0.0)
        assert got / area == pytest.approx((a * a + b * b) ** (p / 2), rel=1e-12)

    def test_convexity_sample(self, two_disk):
        rng = np.random.default_rng(7)
        u = rng.normal(size=two_disk.n_nodes)
        v = rng.normal(size=two_disk.n_nodes)
        mid = energy(two_disk, 0.5 * (u + v), 3.0, 0.0)
        assert mid <= 0.5 * (energy(two_disk, u, 3.0, 0.0) + energy(two_disk, v, 3.0, 0.0))


def independent_linear_floating(mesh, datum, pinned=None):
    """Dense-free oracle: assemble the P1 Laplace stiffness from scratch
    (cotangent form), merge particle blocks by explicit summation, solve.

    With `pinned` = (T1, T2) the particle values are eliminated instead of
    merged (the prescribed-potential problem)."""
    n = mesh.n_nodes
    rows, cols, vals = [], [], []
    for tri in mesh.triangles:
        pts = mesh.nodes[tri]
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            e1 = pts[j] - pts[i]
            e2 = pts[k] - pts[i]
            # cotangent of the angle at vertex i weights edge (j, k)
            cross = e1[0] * e2[1] - e1[1] * e2[0]
            cot = float(e1 @ e2) / abs(float(cross))
            for a, b in ((tri[j], tri[k]), (tri[k], tri[j])):
                rows.append(a), cols.append(b), vals.append(-0.5 * cot)
                rows.append(a), cols.append(a), vals.append(0.5 * cot)
    K = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    tags = mesh.node_tags
    outer = np.flatnonzero(tags == TAG_OUTER)
    p1 = np.flatnonzero(tags == TAG_P1)
    p2 = np.flatnonzero(tags == TAG_P2)
    interior = np.flatnonzero(tags == TAG_INTERIOR)
    g = np.array([datum(x, y) for x, y in mesh.nodes[outer]])

    cols_map = {}
    for i, idx in enumerate(interior):
        cols_map[idx] = i
    m = len(interior)
    nfree = m if pinned is not None else m + 2
    P = sp.lil_matrix((n, nfree))
    for idx, i in cols_map.items():
        P[idx, i] = 1.0
    ufix = np.zeros(n)
    ufix[outer] = g
    if pinned is None:
        P[p1, m] = 1.0
        P[p2, m + 1] = 1.0
    else:
        ufix[p1], ufix[p2] = pinned
    P = P.tocsr()
    A = (P.T @ K @ P).tocsc()
    rhs = -P.T @ (K @ ufix)
    z = spla.spsolve(A, rhs)
    u = ufix + P @ z
    if pinned is None:
        return u, float(z[m]), float(z[m + 1])
    return u, pinned[0], pinned[1]


class TestFloating:
    def test_constant_datum(self, two_disk):
        sol = solve_floating(two_disk, p=2.0, datum=lambda x, y: 2.0)
        assert sol.T1 == pytest.approx(2.0, abs=1e-10)
        assert sol.T2 == pytest.approx(2.0, abs=1e-10)
        assert np.max(np.abs(sol.u - 2.0)) <= 1e-10
        assert sol.energy <= 1e-20

    def test_odd_symmetry(self, floating_p2):
        assert floating_p2.T2 == pytest.approx(-floating_p2.T1, abs=1e-10)
        assert floating_p2.T2 > 0.0

    def test_gap_and_ordering(self, floating_p2):
        assert floating_p2.gap > 0.0

    def test_maximum_principle(self, floating_p2):
        assert floating_p2.u.min() >= -4.0 - 1e-9
        assert floating_p2.u.max() <= 4.0 + 1e-9
        assert -4.0 <= floating_p2.T1 <= floating_p2.T2 <= 4.0

    def test_outer_nodes_carry_datum_exactly(self, two_disk, floating_p2):
        outer = two_disk.nodes_with_tag(TAG_OUTER)
        assert np.array_equal(floating_p2.u[outer], two_disk.nodes[outer, 1])

    def test_matches_independent_linear_solve(self, two_disk, floating_p2):
        u, T1, T2 = independent_linear_floating(two_disk, lambda x, y: y)
        assert floating_p2.T1 == pytest.approx(T1, abs=1e-8)
        assert floating_p2.T2 == pytest.approx(T2, abs=1e-8)
        assert np.max(np.abs(u - floating_p2.u)) <= 1e-8

    def test_energy_monotone_within_stage(self, two_disk):
        sol = solve_floating(two_disk, p=3.0)
        for pk in {t["p"] for t in sol.trace}:
            Es = [t["energy"] for t in sol.trace if t["p"] == pk]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(Es, Es[1:]))

    def test_eps_robustness(self, two_disk):
        base = solve_floating(two_disk, p=3.0)
        cfg = SolverConfig(eps_scale=0.5e-8)
        half = solve_floating(two_disk, p=3.0, config=cfg)
        assert abs(half.gap - base.gap) <= 1e-11


class TestTied:
    def test_constant_datum(self, two_disk):
        sol = solve_tied(two_disk, p=2.0, datum=lambda x, y: -1.0)
        assert sol.T1 == pytest.approx(-1.0, abs=1e-10)

    def test_single_shared_constant(self, two_disk):
        sol = solve_tied(two_disk, p=2.0)
        assert sol.T1 == sol.T2
        p_nodes = np.concatenate(
            [two_disk.nodes_with_tag(TAG_P1), two_disk.nodes_with_tag(TAG_P2)]
        )
        assert np.max(np.abs(sol.u[p_nodes] - sol.T1)) == 0.0

    def test_odd_symmetry_zero(self, two_disk):
        sol = solve_tied(two_disk, p=2.0)
        assert sol.T1 == pytest.approx(0.0, abs=1e-10)

    def test_energy_dominates_floating(self, two_disk, floating_p2):
        tied = solve_tied(two_disk, p=2.0)
        assert tied.energy >= floating_p2.energy


class TestPrescribed:
    def test_constant_consistent(self, two_disk):
        sol = solve_prescribed(two_disk, T1=1.0, T2=1.0, p=2.0, datum=lambda x, y: 1.0)
        assert np.max(np.abs(sol.u - 1.0)) <= 1e-10

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_annulus_matches_radial_profile(self, p):
        mesh = build_annulus_mesh(AnnulusSpec(1.0, 2.0), 0.04)
        sol = solve_prescribed(mesh, T1=0.0, p=p, datum=lambda x, y: 1.0)
        prof = fit_two_point(1.0, 0.0, 2.0, 1.0, p=p, d=2)
        r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
        exact = np.array([radial_eval(prof, rr) for rr in r])
        assert np.max(np.abs(sol.u - exact)) <= 2e-5

    def test_p2_matches_linear_oracle(self, two_disk):
        sol = solve_prescribed(two_disk, T1=-0.3, T2=0.4, p=2.0)
        u, _, _ = independent_linear_floating(
            two_disk, lambda x, y: y, pinned=(-0.3, 0.4)
        )
        assert np.max(np.abs(u - sol.u)) <= 1e-8


class TestLinearAux:
    def test_v3_zero_datum(self, two_disk):
        sol = solve_linear_aux(two_disk, "v3", datum=lambda x, y: 0.0)
        assert np.max(np.abs(sol.u)) == 0.0

    def test_superposition_identity(self, two_disk):
        v1 = solve_linear_aux(two_disk, "v1")
        v2 = solve_linear_aux(two_disk, "v2")
        v3 = solve_linear_aux(two_disk, "v3", datum=lambda x, y: 1.0)
        assert np.max(np.abs(v1.u + v2.u + v3.u - 1.0)) <= 1e-10

    def test_maximum_principle(self, two_disk):
        for which in ("v1", "v2"):
            sol = solve_linear_aux(two_disk, which)
            assert sol.u.min() >= -1e-12
            assert sol.u.max() <= 1.0 + 1e-12


class TestGradMax:
    def test_constant_zero(self, two_disk):
        sol = solve_floating(two_disk, p=2.0, datum=lambda x, y: 5.0)
        val, _ = grad_max(sol, "all")
        assert val <= 1e-9

    def test_max_in_neck(self, floating_p2):
        neck = NeckSpec(floating_p2.mesh.domain.pair, 0.25)
        val_all, loc = grad_max(floating_p2, "all", neck)
        val_neck, _ = grad_max(floating_p2, "neck", neck)
        val_away, _ = grad_max(floating_p2, "away", neck)
        assert val_all == max(val_neck, val_away) == val_neck
        assert abs(loc[0]) <= 0.25
        assert abs(loc[1]) <= 0.1

    def test_neck_mask_matches_scalar_loop(self, two_disk):
        pair = two_disk.domain.pair
        neck = NeckSpec(pair, 0.25)
        cx, cy = two_disk.centroids[:, 0], two_disk.centroids[:, 1]
        expected = np.array(
            [abs(x) < 0.25 and pair.lower_arc_y(x) < y < pair.upper_arc_y(x)
             for x, y in zip(cx, cy)],
            dtype=bool,
        )
        mask = neck.contains(cx, cy)
        assert mask.dtype == bool
        assert 0 < np.sum(mask) < len(mask)
        assert np.array_equal(mask, expected)
        assert all(type(neck.contains(float(x), float(y))) is bool for x, y in zip(cx, cy))

    def test_region_validation(self):
        mesh = build_annulus_mesh(AnnulusSpec(1.0, 2.0), 0.2)
        sol = solve_prescribed(mesh, T1=0.0, p=2.0, datum=lambda x, y: 1.0)
        with pytest.raises(ValueError):
            grad_max(sol, "neck")


class TestSolutionSerialization:
    def test_round_trip(self, floating_p2, tmp_path):
        path = tmp_path / "solution.txt"
        save_solution_text(floating_p2, path)
        mesh, values = load_mesh_text(path)
        assert np.array_equal(values, floating_p2.u)
        assert mesh.n_nodes == floating_p2.mesh.n_nodes
        text = path.read_text()
        assert "kind floating" in text
        assert f"T2 {floating_p2.T2!r}" in text


class TestDomainlessMesh:
    """A mesh read back from text carries no domain, hence no default datum."""

    @pytest.fixture(scope="class")
    def loaded(self, two_disk, tmp_path_factory):
        path = tmp_path_factory.mktemp("mesh") / "mesh.txt"
        save_mesh_text(two_disk, path)
        mesh, _ = load_mesh_text(path)
        assert mesh.domain is None
        return mesh

    @pytest.mark.parametrize("solve", [
        solve_floating,
        solve_tied,
        lambda mesh: solve_linear_aux(mesh, "v3"),
        lambda mesh: solve_prescribed(mesh, T1=0.0, T2=0.0),
    ])
    def test_without_datum_raises(self, loaded, solve):
        with pytest.raises(SolverError, match="datum"):
            solve(loaded)

    @pytest.mark.parametrize("solve", [solve_floating, solve_tied])
    def test_with_datum_matches_original(self, two_disk, loaded, solve):
        datum = two_disk.domain.boundary_datum
        got = solve(loaded, p=3.0, datum=datum)
        want = solve(two_disk, p=3.0)
        assert got.T1 == pytest.approx(want.T1, abs=1e-12)
        assert np.max(np.abs(got.u - want.u)) <= 1e-12
        assert got.newton_iters == want.newton_iters


class TestNewtonTrace:
    @staticmethod
    def failing_splu(monkeypatch, n_failures):
        """Make the first n_failures factorizations raise, as a singular one does."""
        real = solver.spla.splu
        calls = {"n": 0}

        def splu(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] <= n_failures:
                raise RuntimeError("Factor is exactly singular")
            return real(*args, **kwargs)

        monkeypatch.setattr(solver.spla, "splu", splu)

    def test_fields_on_every_entry(self, two_disk):
        sol = solve_floating(two_disk, p=3.0)
        assert sol.newton_iters == len(sol.trace)
        fields = {"iter", "residual", "energy", "tol", "t", "lam", "cg", "refactor",
                  "fallback", "p"}
        for entry in sol.trace:
            assert fields <= set(entry)
            assert type(entry["tol"]) is float and entry["tol"] > 0.0
            assert entry["fallback"] is False
            assert entry["lam"] == 0.0
            assert type(entry["cg"]) is int and 0 <= entry["cg"] <= solver.CG_MAX_ITER
            assert type(entry["refactor"]) is bool
            if entry["t"] == 0.0:  # the converged entry neither solves nor factors
                assert entry["cg"] == 0 and entry["refactor"] is False
            else:  # every step is CG-solved, refactored, or both (after a miss)
                assert entry["cg"] > 0 or entry["refactor"]
        # the first step of the solve has no factor to reuse
        assert sol.trace[0]["refactor"] is True and sol.trace[0]["cg"] == 0
        last = {}
        for entry in sol.trace:
            last[entry["p"]] = entry
        # the converged entry of each stage takes no step; all others do
        for entry in sol.trace:
            if entry is last[entry["p"]]:
                assert entry["t"] == 0.0
            else:
                assert 0.0 < entry["t"] <= 1.0

    def test_one_failed_factorization_shifts(self, two_disk, monkeypatch):
        want = solve_floating(two_disk, p=2.0)
        self.failing_splu(monkeypatch, 1)
        sol = solve_floating(two_disk, p=2.0)
        assert sol.trace[0]["lam"] > 0.0
        assert sol.trace[0]["fallback"] is False
        assert sol.trace[0]["refactor"] is True
        assert sol.T1 == pytest.approx(want.T1, abs=1e-10)

    def test_failed_iteration_falls_back(self, two_disk, monkeypatch):
        want = solve_floating(two_disk, p=2.0)
        # every shifted retry of the first iteration fails (8 attempts)
        self.failing_splu(monkeypatch, 8)
        sol = solve_floating(two_disk, p=2.0)
        assert sol.trace[0]["fallback"] is True
        assert sol.trace[0]["lam"] > 0.0
        assert 0.0 < sol.trace[0]["t"] <= 1.0
        assert not any(entry["fallback"] for entry in sol.trace[1:])
        assert sol.newton_iters == len(sol.trace)
        assert sol.T1 == pytest.approx(want.T1, abs=1e-10)


class TestNewtonDirection:
    def test_spd_factor_keeps_diagonal_pivots(self, monkeypatch):
        """An SPD Hessian is factored without row swaps, even where an
        off-diagonal entry outweighs the diagonal of its column."""
        H = sp.csc_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 5.0, 1.0], [0.0, 1.0, 3.0]]))
        g = np.array([1.0, -2.0, 0.5])
        factors = []
        real = solver.spla.splu

        def splu(*args, **kwargs):
            factors.append(real(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(solver.spla, "splu", splu)
        dz, lam, lu = solver._newton_direction(H, g)
        assert lam == 0.0 and len(factors) == 1 and lu is factors[0]
        assert np.array_equal(factors[0].perm_r, factors[0].perm_c)
        assert np.allclose(dz, np.linalg.solve(H.toarray(), -g), rtol=1e-14, atol=0.0)

    def test_no_descent_direction(self):
        # negative definite: every shift up to the last keeps it so
        dz, lam, lu = solver._newton_direction(sp.csc_matrix(-np.eye(3)), np.ones(3))
        assert dz is None and lu is None
        assert lam == pytest.approx(1e-4)


class TestEvaluationCounts:
    """Newton evaluates the energy and the element weights once per iterate."""

    def test_one_evaluation_per_iterate(self, two_disk, monkeypatch):
        calls = {"energy": 0, "weights": 0}
        real_energy, real_weights = solver.energy, solver._element_weights

        def counting_energy(*args, **kwargs):
            calls["energy"] += 1
            return real_energy(*args, **kwargs)

        def counting_weights(*args, **kwargs):
            calls["weights"] += 1
            return real_weights(*args, **kwargs)

        monkeypatch.setattr(solver, "energy", counting_energy)
        monkeypatch.setattr(solver, "_element_weights", counting_weights)
        sol = solve_floating(two_disk, p=3.0)
        monkeypatch.undo()

        newton_calls = len({t["p"] for t in sol.trace})
        assert newton_calls == 3  # p = 2, 2.5, 3
        # every entry but the last of each call took a step; a step of
        # length 2^-k took k backtracks, so k + 1 line-search trials
        steps = [t["t"] for t in sol.trace if t["t"] > 0.0]
        assert len(steps) == len(sol.trace) - newton_calls
        trials = sum(1 + round(-np.log2(t)) for t in steps)
        # one energy per trial, plus the start of each _newton call
        assert calls["energy"] == trials + newton_calls
        # exactly one per trace entry: the stop test reads the same weights
        assert calls["weights"] == len(sol.trace)
        assert sol.energy == sol.trace[-1]["energy"]
        assert sol.energy == energy(two_disk, sol.u, 3.0, sol.eps)

    def test_stiffness_stored_on_the_mesh(self, two_disk, tmp_path):
        stiffness = np.einsum("eik,eil->ekl", two_disk.grads, two_disk.grads)
        assert np.array_equal(two_disk.stiffness, stiffness)
        path = tmp_path / "mesh.txt"
        save_mesh_text(two_disk, path)
        loaded, _ = load_mesh_text(path)
        assert np.array_equal(loaded.stiffness, two_disk.stiffness)


class TestInexactNewton:
    """Newton steps by CG preconditioned with the solve's last SuperLU factor."""

    @pytest.fixture(scope="class")
    def stage(self, two_disk, floating_p2):
        """The converged p = 2 stage of a floating solve: (con, eps, z, lu)."""
        outer = two_disk.domain.datum_values(two_disk.nodes[two_disk.nodes_with_tag(TAG_OUTER)])
        con = solver._build_constraints(two_disk, "floating", outer)
        eps = floating_p2.eps
        factor = [None]
        z, trace = solver._newton(con, 2.0, eps, np.zeros(con.n_dof), SolverConfig(), factor)
        assert trace[0]["refactor"] is True and factor[0] is not None
        return con, eps, z, factor[0]

    def test_exact_factor_one_iteration(self, stage):
        con, eps, z, _ = stage
        u = con.expand(z)
        H, g = con.hess(u, 3.0, eps), con.grad(u, 3.0, eps)
        dz_ref, lam, lu = solver._newton_direction(H, g)
        assert lam == 0.0
        dz, iters = solver._pcg(H, g, lu, solver.ETA_MAX)
        assert iters == 1
        assert np.max(np.abs(dz - dz_ref)) <= 1e-10 * np.max(np.abs(dz_ref))

    def test_stale_factor_meets_forcing_term(self, stage):
        con, eps, z, lu = stage  # factored at p = 2, applied at the next stage
        u = con.expand(z)
        H, g = con.hess(u, 2.5, eps), con.grad(u, 2.5, eps)
        dz, iters = solver._pcg(H, g, lu, solver.ETA_MAX)
        assert dz is not None
        assert 1 < iters <= solver.CG_MAX_ITER
        assert np.linalg.norm(H @ dz + g) <= solver.ETA_MAX * np.linalg.norm(g)
        assert float(g @ dz) < 0.0

    def test_negative_curvature_refactors(self, two_disk, stage, monkeypatch):
        con, eps, z, lu = stage
        u = con.expand(z)
        H, g = con.hess(u, 2.5, eps), con.grad(u, 2.5, eps)
        assert solver._pcg(-H, g, lu, solver.ETA_MAX) == (None, 1)

        # negate the Hessian of the first step at p = 2.5, the first step
        # that has a factor to reuse
        want = solve_floating(two_disk, p=3.0)
        real = solver._Constraints.hess
        calls = {"n": 0}

        def hess(self, *args):
            calls["n"] += 1
            H = real(self, *args)
            return -H if calls["n"] == 2 else H

        monkeypatch.setattr(solver._Constraints, "hess", hess)
        sol = solve_floating(two_disk, p=3.0)
        first = next(e for e in sol.trace if e["p"] == 2.5)
        assert first["iter"] == 0
        assert first["cg"] == 1 and first["refactor"] is True
        assert sol.newton_iters == len(sol.trace)
        assert sol.T1 == pytest.approx(want.T1, abs=1e-10)

    @pytest.mark.parametrize("solve", [solve_floating, solve_tied])
    def test_matches_exact_newton(self, narrow_gap, solve, monkeypatch):
        mesh = narrow_gap
        factors = {"n": 0}
        real = solver.spla.splu

        def splu(*args, **kwargs):
            factors["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(solver.spla, "splu", splu)
        got = solve(mesh, p=4.0)
        n_factors = factors["n"]
        monkeypatch.setattr(solver, "_pcg", lambda H, g, lu, rtol: (None, 0))
        want = solve(mesh, p=4.0)
        assert all(e["cg"] == 0 for e in want.trace)
        assert factors["n"] - n_factors == sum(e["refactor"] for e in want.trace)

        if got.kind == "floating":
            for a, b in ((got.T1, want.T1), (got.T2, want.T2), (got.gap, want.gap)):
                assert a == pytest.approx(b, rel=1e-8, abs=0.0)
        else:
            # the tied potential vanishes by symmetry under the odd datum,
            # so its error is measured against the datum amplitude max|u|
            assert got.gap == want.gap == 0.0
            assert abs(got.T1 - want.T1) <= 1e-8 * np.max(np.abs(want.u))

        for sol in (got, want):
            last = sol.trace[-1]
            assert last["t"] == 0.0 and last["p"] == 4.0
            assert last["residual"] <= last["tol"]
            # the recorded threshold is the flux-scaled stop test at the answer
            S, rho = self.stop_scales(sol)
            assert last["tol"] == pytest.approx(
                max(SolverConfig().newton_tol * S, 64.0 * np.finfo(float).eps * rho),
                rel=1e-12,
            )
        assert n_factors < got.newton_iters

    @staticmethod
    def stop_scales(sol):
        """S and rho of the stop test, recomputed from the solution."""
        mesh = sol.mesh
        outer = mesh.domain.datum_values(mesh.nodes[mesh.nodes_with_tag(TAG_OUTER)])
        con = solver._build_constraints(mesh, sol.kind, outer)
        bg, w1, _ = solver._element_weights(mesh, sol.u, sol.p, sol.eps)
        P = reduction_oracle(mesh, sol.kind)
        flux = np.zeros(mesh.n_nodes)
        np.add.at(flux, mesh.triangles, np.abs(w1[:, None] * bg))
        b = np.abs(mesh.grads)
        bound = np.zeros(mesh.n_nodes)
        np.add.at(bound, mesh.triangles,
                  w1[:, None] * np.einsum("eik,eil,el->ek", b, b, np.abs(sol.u[mesh.triangles])))
        return float(np.max(P.T @ flux)), float(np.max(P.T @ bound))


class TestStopRule:
    """Convergence is a property of the target-p solution, not of the path:
    the last p-stage stops on the flux-scaled test, the others once their
    residual has fallen by STAGE_RTOL."""

    @pytest.fixture(scope="class")
    def solves(self, narrow_gap):
        return {
            (solve.__name__, p_step): solve(narrow_gap, p=4.0, config=SolverConfig(p_step=p_step))
            for solve in (solve_floating, solve_tied)
            for p_step in (0.5, 1.0)
        }

    @staticmethod
    def stages(sol):
        """The trace entries of each p-stage, in ladder order."""
        stages = {}
        for entry in sol.trace:
            stages.setdefault(entry["p"], []).append(entry)
        return list(stages.items())

    def test_ladders_differ(self, solves):
        for name in ("solve_floating", "solve_tied"):
            assert [pk for pk, _ in self.stages(solves[name, 0.5])] == [2.0, 2.5, 3.0, 3.5, 4.0]
            assert [pk for pk, _ in self.stages(solves[name, 1.0])] == [2.0, 3.0, 4.0]

    # The bounds are tighter than the 1e-9 / 1e-10 that a stop test relative
    # to the gradient of the lift state also met here (gap 1.6e-11 apart,
    # R_delta 1.9e-10, particle defects up to 1.3e-11); the flux-scaled test
    # gives 8e-15, 1.4e-12 and 1.3e-14.

    def test_answer_independent_of_the_path(self, solves):
        a, b = solves["solve_floating", 0.5], solves["solve_floating", 1.0]
        for x, y in ((a.T1, b.T1), (a.T2, b.T2), (a.gap, b.gap)):
            assert x == pytest.approx(y, rel=1e-12, abs=0.0)
        a, b = solves["solve_tied", 0.5], solves["solve_tied", 1.0]
        # the tied potential vanishes by symmetry, so its error is measured
        # against the datum amplitude max|u|
        assert abs(a.T1 - b.T1) <= 1e-12 * np.max(np.abs(a.u))
        assert r_delta(a) == pytest.approx(r_delta(b), rel=1e-10, abs=0.0)

    def test_floating_particle_defect(self, solves, narrow_gap):
        neck = NeckSpec(narrow_gap.domain.pair, 0.25)
        for p_step in (0.5, 1.0):
            rep = flux_report(solves["solve_floating", p_step], neck)
            assert max(rep.particle_defects_rel) <= 1e-12

    def test_stage_stops(self, solves):
        for sol in solves.values():
            *intermediate, (p_final, final) = self.stages(sol)
            assert p_final == sol.p
            assert final[-1]["t"] == 0.0
            assert final[-1]["residual"] <= final[-1]["tol"]
            for _, entries in intermediate:
                # one threshold per stage, fixed at its first residual
                assert all(e["tol"] == entries[0]["tol"] for e in entries)
                assert entries[0]["tol"] >= solver.STAGE_RTOL * entries[0]["residual"]
                assert entries[-1]["t"] == 0.0
                assert entries[-1]["residual"] <= solver.STAGE_RTOL * entries[0]["residual"]
                # no earlier entry of the stage met it
                assert all(e["residual"] > e["tol"] for e in entries[:-1])

    def test_forcing_term_floor(self, narrow_gap, monkeypatch):
        """No CG solve is asked for a linear residual below half the stop
        threshold: rtol ||g||_2 >= min(ETA_MAX ||g||_2, tol / 2)."""
        calls = []
        real = solver._pcg

        def pcg(H, g, lu, rtol):
            calls.append((rtol, float(np.linalg.norm(g))))
            return real(H, g, lu, rtol)

        monkeypatch.setattr(solver, "_pcg", pcg)
        sol = solve_floating(narrow_gap, p=4.0)
        entries = [e for e in sol.trace if e["cg"] > 0]  # one _pcg call each
        assert len(entries) == len(calls)
        floored = 0
        for e, (rtol, g2) in zip(entries, calls):
            assert solver.ETA_MIN <= rtol <= solver.ETA_MAX
            assert rtol >= min(solver.ETA_MAX, 0.5 * e["tol"] / g2)
            floored += rtol == 0.5 * e["tol"] / g2
        assert floored > 0  # the floor, not the Eisenstat-Walker term, set some steps


class TestBincountScatter:
    def test_grad_full_matches_add_at(self, floating_p2):
        mesh, u = floating_p2.mesh, floating_p2.u
        bg, w1, _ = solver._element_weights(mesh, u, 3.0, 1e-8)
        want = np.zeros(mesh.n_nodes)
        np.add.at(want, mesh.triangles, w1[:, None] * bg)
        assert np.array_equal(solver._grad_full(mesh, u, 3.0, 1e-8), want)

    def test_recovered_node_gradients_matches_add_at(self, floating_p2):
        mesh, u = floating_p2.mesh, floating_p2.u
        g = element_gradients(mesh, u)
        acc = np.zeros((mesh.n_nodes, 2))
        wacc = np.zeros(mesh.n_nodes)
        w = mesh.areas
        for k in range(3):
            np.add.at(acc, mesh.triangles[:, k], w[:, None] * g)
            np.add.at(wacc, mesh.triangles[:, k], w)
        assert np.array_equal(recovered_node_gradients(mesh, u), acc / wacc[:, None])


def grad_full_oracle(mesh, u, p, eps):
    """Nodal energy gradient, scattered with np.add.at."""
    g = element_gradients(mesh, u)
    s = eps * eps + np.einsum("ei,ei->e", g, g)
    w = mesh.areas * p * s ** (0.5 * p - 1.0)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, mesh.triangles, np.einsum("e,eik,ei->ek", w, mesh.grads, g))
    return out


def hess_full_oracle(mesh, u, p, eps):
    """Nodal energy Hessian, assembled through COO -> CSR."""
    g = element_gradients(mesh, u)
    s = eps * eps + np.einsum("ei,ei->e", g, g)
    w1 = mesh.areas * p * s ** (0.5 * p - 1.0)
    s_safe = np.where(s > 0.0, s, 1.0)
    w2 = mesh.areas * p * (p - 2.0) * s_safe ** (0.5 * p - 2.0)
    bg = np.einsum("eik,ei->ek", mesh.grads, g)
    hloc = w1[:, None, None] * np.einsum("eik,eil->ekl", mesh.grads, mesh.grads)
    hloc += w2[:, None, None] * np.einsum("ek,el->ekl", bg, bg)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    return sp.coo_matrix((hloc.ravel(), (rows, cols)), shape=(mesh.n_nodes,) * 2).tocsr()


def reduction_oracle(mesh, kind):
    """P with u = P z + u_fix: one column per interior node, then one per
    merged particle (two when floating, one shared when tied)."""
    groups = [[i] for i in mesh.nodes_with_tag(TAG_INTERIOR)]
    p1, p2 = mesh.nodes_with_tag(TAG_P1), mesh.nodes_with_tag(TAG_P2)
    if kind == "floating":
        groups += [p1, p2]
    elif kind == "tied":
        groups += [np.concatenate([p1, p2])]
    rows = np.concatenate([np.asarray(grp, dtype=int) for grp in groups])
    cols = np.repeat(np.arange(len(groups)), [len(grp) for grp in groups])
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(mesh.n_nodes, len(groups)))


PROBLEMS = [
    ("floating", None),
    ("tied", None),
    ("prescribed", (-0.3, 0.4)),
    ("linear-aux", "v1"),
    ("linear-aux", "v3"),
]


class TestReducedAssembly:
    """Scatter assembly into reduced unknowns against P^T (nodal oracle) P."""

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("kind,pinned", PROBLEMS)
    def test_matches_nodal_oracle(self, two_disk, kind, pinned, p):
        outer = two_disk.domain.datum_values(two_disk.nodes[two_disk.nodes_with_tag(TAG_OUTER)])
        con = solver._build_constraints(two_disk, kind, outer, pinned)
        P = reduction_oracle(two_disk, kind)
        assert con.n_dof == P.shape[1]
        z = np.random.default_rng(3).normal(size=con.n_dof)
        u = con.expand(z)
        assert np.array_equal(u, P @ z + con.u_fix)
        eps = 1e-8

        g = con.grad(u, p, eps)
        g_ref = P.T @ grad_full_oracle(two_disk, u, p, eps)
        assert np.max(np.abs(g - g_ref)) <= 1e-13 * np.max(np.abs(g_ref))

        H = con.hess(u, p, eps)
        H_ref = (P.T @ hess_full_oracle(two_disk, u, p, eps) @ P).tocsc()
        # structural pattern from all-ones element blocks, so that no
        # entry is lost to an exact cancellation in the oracle product
        ones = hess_full_oracle(two_disk, u, 2.0, 1.0)
        ones.data[:] = 1.0
        pattern = (P.T @ ones @ P).tocsc()
        pattern.sort_indices()
        assert H.format == "csc" and H.has_sorted_indices
        assert np.array_equal(H.indptr, pattern.indptr)
        assert np.array_equal(H.indices, pattern.indices)
        assert abs(H - H.T).max() == 0.0
        assert abs(H - H_ref).max() <= 1e-13 * abs(H_ref).max()

    def test_newton_direction_matches_spsolve(self, two_disk, monkeypatch):
        """The solver's first factor-and-solve against spsolve on the oracle."""
        seen = []
        real = solver.spla.splu

        def splu(A, *args, **kwargs):
            lu = real(A, *args, **kwargs)
            seen.append((A.copy(), lu))
            return lu

        monkeypatch.setattr(solver.spla, "splu", splu)
        sol = solve_floating(two_disk, p=4.0, config=SolverConfig(p_continuation=False))
        monkeypatch.undo()

        outer = two_disk.domain.datum_values(two_disk.nodes[two_disk.nodes_with_tag(TAG_OUTER)])
        con = solver._build_constraints(two_disk, "floating", outer)
        P = reduction_oracle(two_disk, "floating")
        u = con.u_fix  # the first iterate: zero free unknowns
        H_ref = (P.T @ hess_full_oracle(two_disk, u, 4.0, sol.eps) @ P).tocsc()
        g_ref = P.T @ grad_full_oracle(two_disk, u, 4.0, sol.eps)
        A, lu = seen[0]
        assert abs(A - H_ref).max() <= 1e-13 * abs(H_ref).max()
        dz = lu.solve(-g_ref)
        dz_ref = spla.spsolve(H_ref, -g_ref)
        assert np.max(np.abs(dz - dz_ref)) <= 1e-10 * np.max(np.abs(dz_ref))
