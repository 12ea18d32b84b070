import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplaw.flux import flux_report, r_delta
from gaplaw.geometry import DomainSpec, NeckSpec, ParticlePair, datum_values
from gaplaw.mesh import (
    TAG_INTERIOR,
    TAG_OUTER,
    TAG_P1,
    TAG_P2,
    Mesh,
    MeshParams,
    build_mesh,
)
import gaplaw.flux as flux_module
import gaplaw.solver as solver
from gaplaw.solver import (
    SolverError,
    energy,
    grad_max,
    mirrored,
    save_solution_text,
    solve_floating,
    solve_linear_aux,
    solve_prescribed,
    solve_tied,
)
from gaplaw.mesh import load_mesh_text, save_mesh_text
from gaplaw.sweep import SweepConfig
from radial import AnnulusSpec, build_annulus_mesh, fit_two_point, radial_eval
from test_mesh import with_oracle_mirrors


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

    def test_eps_robustness(self, two_disk, monkeypatch):
        base = solve_floating(two_disk, p=3.0)
        monkeypatch.setattr(solver, "EPS_SCALE", 0.5 * solver.EPS_SCALE)
        half = solve_floating(two_disk, p=3.0)
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

    @pytest.mark.parametrize("delta", SweepConfig().deltas)
    def test_bitwise_equal_to_prescribed(self, delta):
        cfg = SweepConfig()
        mesh = build_mesh(cfg.domain(delta), cfg.mesh_params())
        for which, T1, T2, datum in (("v1", 1.0, 0.0, zero_datum),
                                     ("v2", 0.0, 1.0, zero_datum),
                                     ("v3", 0.0, 0.0, None)):
            aux = solve_linear_aux(mesh, which)
            want = solve_prescribed(mesh, T1, T2, p=2.0, datum=datum)
            assert np.array_equal(aux.u, want.u)
            assert (aux.kind, aux.p, aux.eps, aux.energy, aux.newton_iters, aux.parity) == (
                want.kind, want.p, want.eps, want.energy, want.newton_iters, want.parity)
            assert (aux.T1, aux.T2) == (T1, T2)

    def test_unknown_problem(self, two_disk):
        with pytest.raises(SolverError, match="v4"):
            solve_linear_aux(two_disk, "v4")


class TestDerivedAuxiliaries:
    """On a mirror-symmetric mesh v2 is v1's mirror image, and under the
    odd datum u = y the p = 2 tied solve is the v3 solve."""

    @pytest.mark.parametrize("R,delta,R_out", [(1.0, 0.04, 4.0), (0.7, 0.01, 2.1),
                                               (1.5, 0.005, 6.0)])
    def test_mirror_and_tied_give_v2_and_v3(self, R, delta, R_out):
        mesh = build_mesh(DomainSpec(pair=ParticlePair(R=R, delta=delta), R_out=R_out),
                          MeshParams(h_far=0.5 * R))
        v1 = solve_linear_aux(mesh, "v1")
        v2 = solve_linear_aux(mesh, "v2")
        image = mirrored(v1)
        assert np.max(np.abs(image.u - v2.u)) <= 1e-14
        assert (image.T1, image.T2) == (v2.T1, v2.T2) == (0.0, 1.0)
        assert (image.kind, image.p, image.eps, image.energy, image.parity) == (
            v1.kind, v1.p, v1.eps, v1.energy, v1.parity)
        assert (image.trace, image.newton_iters) == ([], 0)
        tied = solve_tied(mesh, p=2.0)
        v3 = solve_linear_aux(mesh, "v3")
        assert tied.parity == v3.parity == (-1, 1)
        assert np.array_equal(tied.u, v3.u)
        assert tied.eps == v3.eps

    def test_mirrored_needs_a_mirror(self, two_disk):
        v1 = solve_linear_aux(two_disk, "v1")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(two_disk, "mirror", None)
            with pytest.raises(SolverError, match="mirror"):
                mirrored(v1)


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

    def test_region_validation(self, floating_p2):
        mesh = build_annulus_mesh(AnnulusSpec(1.0, 2.0), 0.2)
        sol = solve_prescribed(mesh, T1=0.0, p=2.0, datum=lambda x, y: 1.0)
        # the window is the caller's, on a two-particle mesh too
        for solution in (sol, floating_p2):
            for region in ("neck", "away"):
                with pytest.raises(ValueError, match="neck="):
                    grad_max(solution, region)

    @pytest.mark.parametrize("region", ["nekc", "Neck"])
    def test_unknown_region(self, floating_p2, region):
        # once read as 'away' by the mask ~inside
        with pytest.raises(ValueError, match=repr(region)):
            grad_max(floating_p2, region)


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


def _saved_and_loaded(mesh, directory):
    save_mesh_text(mesh, directory / "mesh.txt")
    loaded, _ = load_mesh_text(directory / "mesh.txt")
    assert loaded.domain is None
    return loaded


class TestDomainlessMesh:
    """A mesh read back from text carries no domain, hence no default datum."""

    @pytest.fixture(scope="class")
    def loaded(self, two_disk, tmp_path_factory):
        return _saved_and_loaded(two_disk, tmp_path_factory.mktemp("mesh"))

    @pytest.mark.parametrize("solve", [
        solve_floating,
        solve_tied,
        lambda mesh: solve_linear_aux(mesh, "v3"),
        lambda mesh: solve_prescribed(mesh, T1=0.0, T2=0.0),
    ])
    def test_without_datum_raises(self, loaded, solve):
        with pytest.raises(SolverError, match="datum"):
            solve(loaded)

    @pytest.mark.parametrize("which", ["v1", "v2"])
    def test_unit_auxiliaries_need_no_datum(self, two_disk, loaded, which):
        got = solve_linear_aux(loaded, which)
        want = solve_linear_aux(two_disk, which)
        assert np.array_equal(got.u, want.u)

    @pytest.mark.parametrize("solve", [solve_floating, solve_tied])
    def test_with_datum_matches_original(self, two_disk, loaded, solve):
        datum = two_disk.domain.boundary_datum
        got = solve(loaded, p=3.0, datum=datum)
        want = solve(two_disk, p=3.0)
        assert got.T1 == pytest.approx(want.T1, abs=1e-12)
        assert np.max(np.abs(got.u - want.u)) <= 1e-12
        assert got.newton_iters == want.newton_iters


class TestRoundTrip:
    """eps is read off the nodes, so a saved and loaded mesh solves bit for
    bit like the built one, at any R and R_out (R_out = 4R is no special case)."""

    @pytest.mark.parametrize("solve", [solve_floating, solve_tied])
    def test_R2_Rout8_p4(self, solve, tmp_path):
        domain = DomainSpec(pair=ParticlePair(R=2.0, delta=0.04), R_out=8.0)
        mesh = build_mesh(domain)
        loaded = _saved_and_loaded(mesh, tmp_path)
        want = solve(mesh, p=4.0)
        got = solve(loaded, p=4.0, datum=domain.boundary_datum)
        assert np.array_equal(got.u, want.u)
        for name in ("T1", "T2", "eps", "energy", "newton_iters"):
            assert getattr(got, name) == getattr(want, name), name

    @given(R=st.floats(0.5, 2.0), delta_over_R=st.floats(0.005, 0.05),
           R_out_over_R=st.floats(2.5, 5.0))
    @settings(max_examples=12, deadline=None)
    def test_any_geometry_p3(self, R, delta_over_R, R_out_over_R, tmp_path_factory):
        domain = DomainSpec(pair=ParticlePair(R=R, delta=delta_over_R * R),
                            R_out=R_out_over_R * R)
        mesh = build_mesh(domain, MeshParams(h_far=0.5 * R))
        loaded = _saved_and_loaded(mesh, tmp_path_factory.mktemp("mesh"))
        want = solve_floating(mesh, p=3.0)
        got = solve_floating(loaded, p=3.0, datum=domain.boundary_datum)
        assert np.array_equal(got.u, want.u)
        assert (got.eps, got.energy, got.trace) == (want.eps, want.energy, want.trace)

    def test_eps_from_span_and_width(self, two_disk, tmp_path):
        annulus = build_annulus_mesh(AnnulusSpec(1.0, 2.0), 0.2)
        loaded = _saved_and_loaded(two_disk, tmp_path)
        cases = [(two_disk, solve_floating(two_disk, p=2.0), 8.0, 8.0),  # u = y on r = 4
                 (annulus, solve_prescribed(annulus, T1=0.0, datum=lambda x, y: 1.0), 1.0, 4.0),
                 (loaded, solve_tied(loaded, datum=lambda x, y: 3.0 * y), 24.0, 8.0)]
        for mesh, sol, span, width in cases:
            assert np.ptp(mesh.nodes[:, 0]) == width
            assert sol.eps == solver.EPS_SCALE * span / width


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
                  "dropped", "fallback", "p"}
        for entry in sol.trace:
            assert fields <= set(entry)
            assert type(entry["tol"]) is float and entry["tol"] > 0.0
            assert entry["fallback"] is False and entry["dropped"] is False
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

    def test_dropped_cg_step(self, two_disk, monkeypatch):
        """A CG step whose line search fails is traced as dropped, unlike a
        CG miss, which also refactors."""
        want = solve_floating(two_disk, p=3.0)
        real_pcg, real_search = solver._pcg, solver._line_search
        cg_steps, failed = [], []

        def pcg(*args):
            dz, iters = real_pcg(*args)
            cg_steps.append(dz)
            return dz, iters

        def line_search(con, p, eps, z, E, g, dz, fresh):
            if not failed and cg_steps and dz is cg_steps[-1]:
                failed.append(p)  # the first search along a CG direction
                return None
            return real_search(con, p, eps, z, E, g, dz, fresh)

        monkeypatch.setattr(solver, "_pcg", pcg)
        monkeypatch.setattr(solver, "_line_search", line_search)
        sol = solve_floating(two_disk, p=3.0)
        dropped = [entry for entry in sol.trace if entry["dropped"]]
        assert len(failed) == len(dropped) == 1
        entry = dropped[0]
        assert entry["p"] == failed[0]
        assert entry["cg"] > 0 and entry["refactor"] is True and entry["t"] > 0.0
        assert sol.T1 == pytest.approx(want.T1, abs=1e-10)

    def test_overflowing_cg_step_costs_one_energy(self, two_disk, monkeypatch):
        """A CG step whose full step overflows the energy is dropped on that
        one evaluation, not after ARMIJO_MAX_BACKTRACKS futile halvings."""
        want = solve_floating(two_disk, p=3.0)
        real_pcg, real_direction = solver._pcg, solver._newton_direction
        real_energy = solver.energy
        calls, spent = [], []  # energy calls so far: at the long step, at the refactor

        def energy(*args):
            calls.append(None)
            return real_energy(*args)

        def pcg(*args):
            dz, iters = real_pcg(*args)
            if dz is not None and not spent:
                spent.append(len(calls))
                dz = 1e200 * dz  # still a descent direction; its |grad u|^3 overflows
            return dz, iters

        def newton_direction(*args):
            if len(spent) == 1:
                spent.append(len(calls))
            return real_direction(*args)

        monkeypatch.setattr(solver, "energy", energy)
        monkeypatch.setattr(solver, "_pcg", pcg)
        monkeypatch.setattr(solver, "_newton_direction", newton_direction)
        sol = solve_floating(two_disk, p=3.0)
        assert len(spent) == 2 and spent[1] - spent[0] == 1
        dropped = [entry for entry in sol.trace if entry["dropped"]]
        assert len(dropped) == 1 and dropped[0]["refactor"] is True
        assert sol.T1 == pytest.approx(want.T1, abs=1e-10)


class TestNewtonRaises:
    """`_newton` raises when the MAX_ITER-th step leaves the stop test
    unmet, or when a line search along a fresh factor fails."""

    @pytest.fixture(scope="class")
    def coarse(self):
        dom = DomainSpec(pair=ParticlePair(R=1.0, delta=0.04), R_out=4.0)
        return build_mesh(dom, MeshParams(h_far=0.45))

    def test_converges_on_its_last_step(self, coarse, monkeypatch):
        want = solve_floating(coarse, p=2.0)
        assert len(want.trace) == 2  # one step, then the stop test passes
        monkeypatch.setattr(solver, "MAX_ITER", 1)
        sol = solve_floating(coarse, p=2.0)
        assert (sol.T1, sol.T2) == (want.T1, want.T2)
        assert len(sol.trace) == 2

    def test_unconverged_stage_names_residual_and_tol(self, coarse, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITER", 1)
        with pytest.raises(SolverError, match=r"did not converge in 1 iterations \(p=3\.0") as info:
            solve_floating(coarse, p=3.0)
        residual, tol = (float(x) for x in re.search(r"residual (\S+) vs tol (\S+)\)",
                                                     str(info.value)).groups())
        assert residual > tol
        # each stage's start and the iterate of its one step: p = 2 converged
        assert [entry["p"] for entry in info.value.trace] == [2.0, 2.0, 3.0, 3.0]

    def test_failed_solve_keeps_every_stage(self, narrow_gap, monkeypatch):
        """The error's trace is the solve's trace so far, not the failing
        stage's alone, and each entry names its stage's p last."""
        full = solve_tied(narrow_gap, p=5.0).trace
        monkeypatch.setattr(solver, "MAX_ITER", 3)
        with pytest.raises(SolverError, match=r"did not converge in 3 iterations \(p=5\.0") as info:
            solve_tied(narrow_gap, p=5.0)
        trace = info.value.trace
        # the same iterates; the failing one takes no step
        assert trace[:-1] == full[:len(trace) - 1]
        assert trace[-1] == {**full[len(trace) - 1], "t": 0.0, "cg": 0}
        assert [entry["p"] for entry in trace[-4:]] == [5.0] * 4
        assert {entry["p"] for entry in trace} == {2.0, 3.0, 4.0, 5.0}
        keys = ["iter", "residual", "energy", "tol", "t", "lam", "cg", "refactor", "dropped",
                "fallback", "p"]
        assert all(list(entry) == keys for entry in trace + full)

    def test_failed_line_search(self, coarse, monkeypatch):
        monkeypatch.setattr(solver, "_line_search", lambda *args, **kwargs: None)
        with pytest.raises(SolverError, match="line search failed at iter 0"):
            solve_floating(coarse, p=2.0)


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
        monkeypatch.setattr(solver, "P_STEP", 0.5)
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
        # under both mirrors Newton sums over the quarter of the elements,
        # areas times 4: a few ulp from the full sum
        assert sol.parity == (-1, 1)
        full = energy(two_disk, sol.u, 3.0, sol.eps)
        assert abs(sol.energy - full) <= 4 * np.finfo(float).eps * full
        # without a parity the sums run over the mesh itself, bit for bit
        general = solve_prescribed(two_disk, T1=-0.3, T2=0.4, datum=lambda x, y: x + y)
        assert general.parity == (None, None)
        assert general.energy == energy(two_disk, general.u, 2.0, general.eps)


class TestInexactNewton:
    """Newton steps by CG preconditioned with the solve's last SuperLU factor."""

    @pytest.fixture(scope="class")
    def stage(self, two_disk, floating_p2):
        """The converged p = 2 stage of a floating solve: (con, eps, z, lu)."""
        outer = two_disk.domain.datum_values(two_disk.nodes[two_disk.nodes_with_tag(TAG_OUTER)])
        con = solver._build_constraints(two_disk, "floating", outer)
        eps = floating_p2.eps
        factor, trace = [None], []
        z = solver._newton(con, 2.0, eps, float(np.ptp(outer)), np.zeros(con.n_dof), factor, trace)
        assert trace[0]["refactor"] is True and factor[0] is not None
        return con, eps, z, factor[0]

    def test_exact_factor_one_iteration(self, stage):
        con, eps, z, _ = stage
        u = con.expand(z)
        w = solver._element_weights(con.elements, u, 3.0, eps)
        H, g = con.hess(w), con.grad(w)
        dz_ref, lam, lu = solver._newton_direction(H, g)
        assert lam == 0.0
        dz, iters = solver._pcg(H, g, lu, solver.ETA_MAX)
        assert iters == 1
        assert np.max(np.abs(dz - dz_ref)) <= 1e-10 * np.max(np.abs(dz_ref))

    def test_stale_factor_meets_forcing_term(self, stage):
        con, eps, z, lu = stage  # factored at p = 2, applied at the next stage
        u = con.expand(z)
        w = solver._element_weights(con.elements, u, 2.5, eps)
        H, g = con.hess(w), con.grad(w)
        dz, iters = solver._pcg(H, g, lu, solver.ETA_MAX)
        assert dz is not None
        assert 1 < iters <= solver.CG_MAX_ITER
        assert np.linalg.norm(H @ dz + g) <= solver.ETA_MAX * np.linalg.norm(g)
        assert float(g @ dz) < 0.0

    def test_negative_curvature_refactors(self, two_disk, stage, monkeypatch):
        con, eps, z, lu = stage
        u = con.expand(z)
        w = solver._element_weights(con.elements, u, 2.5, eps)
        H, g = con.hess(w), con.grad(w)
        assert solver._pcg(-H, g, lu, solver.ETA_MAX) == (None, 1)

        # negate the Hessian of the first step at p = 2.5, the first step
        # that has a factor to reuse
        monkeypatch.setattr(solver, "P_STEP", 0.5)
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
                max(solver.NEWTON_TOL * S, 64.0 * np.finfo(float).eps * rho),
                rel=1e-12,
            )
        assert n_factors < got.newton_iters

    @staticmethod
    def stop_scales(sol):
        """S and rho of the stop test, recomputed from the solution."""
        P = reduction_oracle(sol.mesh, sol.kind, sol.parity)
        return stop_scales_oracle(sol.mesh, P, sol.u, sol.p, sol.eps)


class TestStopRule:
    """Convergence is a property of the target-p solution, not of the path:
    the last p-stage stops on the flux-scaled test, the others once their
    residual has fallen by STAGE_RTOL."""

    @pytest.fixture(scope="class")
    def solves(self, narrow_gap):
        solves = {}
        for p_step in (0.5, 1.0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver, "P_STEP", p_step)
                for solve in (solve_floating, solve_tied):
                    solves[solve.__name__, p_step] = solve(narrow_gap, p=4.0)
        return solves

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
        real = solver._pcg
        floored = 0
        for solve in (solve_floating, solve_tied):
            calls = []

            def pcg(H, g, lu, rtol):
                calls.append((rtol, float(np.linalg.norm(g))))
                return real(H, g, lu, rtol)

            monkeypatch.setattr(solver, "_pcg", pcg)
            sol = solve(narrow_gap, p=4.0)
            entries = [e for e in sol.trace if e["cg"] > 0]  # one _pcg call each
            assert len(entries) == len(calls)
            for e, (rtol, g2) in zip(entries, calls):
                assert solver.ETA_MIN <= rtol <= solver.ETA_MAX
                assert rtol >= min(solver.ETA_MAX, 0.5 * e["tol"] / g2)
                floored += rtol == 0.5 * e["tol"] / g2
        assert floored > 0  # the floor, not the Eisenstat-Walker term, set some steps


class TestContinuationInvariance:
    """The default unit p-step and the half step reach the same target-p
    solution: the stop test is applied at the target p alone."""

    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    @pytest.mark.parametrize("solve", [solve_floating, solve_tied])
    def test_half_and_unit_steps_agree(self, two_disk, solve, p, monkeypatch):
        assert solver.P_STEP == 1.0
        unit = solve(two_disk, p=p)
        monkeypatch.setattr(solver, "P_STEP", 0.5)
        half = solve(two_disk, p=p)
        assert len({e["p"] for e in half.trace}) > len({e["p"] for e in unit.trace})
        for a, b in ((half.T1, unit.T1), (half.T2, unit.T2), (half.energy, unit.energy)):
            assert b == pytest.approx(a, rel=1e-12, abs=0.0)


class TestBincountScatter:
    def test_grad_full_matches_add_at(self, floating_p2):
        sol = dataclasses.replace(floating_p2, p=3.0, eps=1e-8)
        mesh = sol.mesh
        bg, w1, _ = solver._element_weights(mesh, sol.u, 3.0, 1e-8)
        want = np.zeros(mesh.n_nodes)
        np.add.at(want, mesh.triangles, (w1 * bg).T)
        assert np.array_equal(flux_module._node_flux_weights(sol), want / 3.0)


def gradient_oracle(mesh, u):
    """(m, 2) constant P1 gradient of each element, by one einsum."""
    return np.einsum("eik,ek->ei", mesh.grads, u[mesh.triangles])


def grad_full_oracle(mesh, u, p, eps):
    """Nodal energy gradient, scattered with np.add.at."""
    g = gradient_oracle(mesh, u)
    s = eps * eps + np.einsum("ei,ei->e", g, g)
    w = mesh.areas * p * s ** (0.5 * p - 1.0)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, mesh.triangles, np.einsum("e,eik,ei->ek", w, mesh.grads, g))
    return out


def hess_full_oracle(mesh, u, p, eps):
    """Nodal energy Hessian, assembled through COO -> CSR."""
    g = gradient_oracle(mesh, u)
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


def image_oracle(mesh, sx, sy):
    """Node -> its image under (x, y) -> (sx x, sy y), looked up by coordinates."""
    index = {(x, y): i for i, (x, y) in enumerate(mesh.nodes.tolist())}
    return np.array([index[sx * x, sy * y] for x, y in mesh.nodes.tolist()])


def reduction_oracle(mesh, kind, parity=(None, None)):
    """P with u = P z + u_fix.

    Unreduced: one column per interior node, then one per merged particle
    (two when floating, one shared when tied).  `parity` is the character
    of the data under (y -> -y, x -> -x), each -1 (odd), +1 (even) or None
    (mirror not used).  The mirrors used make a group G, and chi(g) is the
    product of the parities of the mirrors that make g.  A column c
    becomes the sum over g in G of chi(g) g(c), scaled to entries +-1; of
    the images of c only the one with a node that has no negative
    coordinate on a used axis keeps a column, and that column is zero, the
    unknown fixed at 0, when some g with chi(g) = -1 maps c onto itself.
    """
    interior = mesh.nodes_with_tag(TAG_INTERIOR)
    p1, p2 = mesh.nodes_with_tag(TAG_P1), mesh.nodes_with_tag(TAG_P2)
    columns = [[i] for i in interior]
    if kind == "floating":
        columns += [p1, p2]
    elif kind == "tied":
        columns += [np.concatenate([p1, p2])]
    group = [(np.arange(mesh.n_nodes), 1)]
    axes = []
    for axis, (sx, sy), s in ((1, (1.0, -1.0), parity[0]), (0, (-1.0, 1.0), parity[1])):
        if s is not None:
            image = image_oracle(mesh, sx, sy)
            group += [(image[g], chi * s) for g, chi in group]
            axes.append(axis)
    groups = []
    for column in columns:
        column = np.asarray(column)
        if not np.any(np.all(mesh.nodes[column][:, axes] >= 0.0, axis=1)):
            continue  # an image of a column with a node on the kept side
        v = np.zeros(mesh.n_nodes)
        for g, chi in group:
            v[g[column]] += chi
        nodes = np.flatnonzero(v)
        if len(nodes):
            groups.append((nodes, v[nodes] / np.max(np.abs(v))))
    rows = np.concatenate([np.asarray(nodes, dtype=int) for nodes, _ in groups])
    vals = np.concatenate([np.asarray(signs, dtype=float) for _, signs in groups])
    cols = np.repeat(np.arange(len(groups)), [len(nodes) for nodes, _ in groups])
    return sp.csr_matrix((vals, (rows, cols)), shape=(mesh.n_nodes, len(groups)))


def even_datum(x, y):
    return x * x


def zero_datum(x, y):
    return 0.0


# (kind, pinned, datum, parity): the default datum u = y is odd under
# y -> -y and even under x -> -x; the unequal pinned potentials, v1's
# among them, use the x-mirror only
PROBLEMS = [
    pytest.param("floating", None, None, (-1, 1), id="floating-None"),
    pytest.param("tied", None, None, (-1, 1), id="tied-None"),
    pytest.param("prescribed", (-0.3, 0.4), None, (None, 1), id="prescribed-pinned2"),
    pytest.param("prescribed", (1.0, 0.0), zero_datum, (None, 1), id="prescribed-v1"),
    pytest.param("prescribed", (0.0, 0.0), None, (-1, 1), id="prescribed-v3"),
    pytest.param("floating", None, even_datum, (1, 1), id="floating-even"),
    pytest.param("tied", None, even_datum, (1, 1), id="tied-even"),
]


def box_mesh(columns=7):
    """A mirror-symmetric mesh of the square [-1, 1]^2 without particles.

    The band |y| < 1/2 is cut into rectangles, each split into four
    elements at its centre on the axis; the left and right ones hold a
    node pair (x, +-1/2), so a mirror pair meets inside one element across
    the axis, which no two-disk mesh has (its axis is a row of element
    edges); such a mesh is not reduced.  Its triangles are not four
    images of a quarter, so its mirrors come from `find_mirror_oracle`."""
    xs = np.linspace(-1.0, 1.0, columns)
    nodes, tags = [], []

    def node(x, y):
        nodes.append((x, y))
        tags.append(TAG_OUTER if abs(x) == 1.0 or abs(y) == 1.0 else TAG_INTERIOR)
        return len(nodes) - 1

    at = {(i, y): node(x, y) for y in (1.0, 0.5, -0.5, -1.0) for i, x in enumerate(xs)}
    tris = []
    for i in range(columns - 1):
        centre = node(0.5 * (xs[i] + xs[i + 1]), 0.0)
        for s in (1.0, -1.0):  # the quads between |y| = 1/2 and 1, mirrored
            tris += [[at[i, 0.5 * s], at[i + 1, 0.5 * s], at[i + 1, s]],
                     [at[i, 0.5 * s], at[i + 1, s], at[i, s]]]
        tris += [[at[i, 0.5], at[i + 1, 0.5], centre], [at[i, -0.5], at[i + 1, -0.5], centre],
                 [at[i, 0.5], at[i, -0.5], centre], [at[i + 1, 0.5], at[i + 1, -0.5], centre]]
    return with_oracle_mirrors(Mesh(np.array(nodes), np.array(tris), np.array(tags)))


def assert_assembly_matches_oracle(mesh, kind, outer, pinned, parity, p):
    con = solver._build_constraints(mesh, kind, outer, pinned)
    assert con.parity == parity
    P = reduction_oracle(mesh, kind, parity)
    assert con.n_dof == P.shape[1]
    z = np.random.default_rng(3).normal(size=con.n_dof)
    u = con.expand(z)
    assert np.array_equal(u, P @ z + con.u_fix)
    eps = 1e-8

    w = solver._element_weights(con.elements, u, p, eps)
    g = con.grad(w)
    g_ref = P.T @ grad_full_oracle(mesh, u, p, eps)
    assert np.max(np.abs(g - g_ref)) <= 1e-13 * np.max(np.abs(g_ref))

    H = con.hess(w)
    H_ref = (P.T @ hess_full_oracle(mesh, u, p, eps) @ P).tocsc()
    # structural pattern from all-ones element blocks and |P|, so that
    # no entry is lost to an exact cancellation in the oracle product
    ones = hess_full_oracle(mesh, u, 2.0, 1.0)
    ones.data[:] = 1.0
    pattern = (abs(P).T @ ones @ abs(P)).tocsc()
    pattern.sort_indices()
    assert H.format == "csc" and H.has_sorted_indices
    assert np.array_equal(H.indptr, pattern.indptr)
    assert np.array_equal(H.indices, pattern.indices)
    assert abs(H - H.T).max() == 0.0
    assert abs(H - H_ref).max() <= 1e-13 * abs(H_ref).max()


class TestReducedAssembly:
    """Scatter assembly into reduced unknowns against P^T (nodal oracle) P."""

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("kind,pinned,datum,parity", PROBLEMS)
    def test_matches_nodal_oracle(self, two_disk, kind, pinned, datum, parity, p):
        outer = datum_values(datum or two_disk.domain.boundary_datum,
                             two_disk.nodes[two_disk.nodes_with_tag(TAG_OUTER)])
        assert_assembly_matches_oracle(two_disk, kind, outer, pinned, parity, p)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("datum", [lambda x, y: y, even_datum], ids=["odd", "even"])
    def test_mirror_pair_in_one_element(self, datum, p):
        # elements across the axis: no reduction, the unsigned assembly
        mesh = box_mesh()
        assert mesh.mirror is not None
        outer = datum_values(datum, mesh.nodes[mesh.nodes_with_tag(TAG_OUTER)])
        assert_assembly_matches_oracle(mesh, "prescribed", outer, (0.0, None), (None, None), p)

    @pytest.mark.parametrize("kind", ["floating", "tied"])
    def test_symmetric_for_any_vertex_order(self, two_disk, kind):
        """H == H^T bit for bit however each element lists its vertices:
        the sum into an entry and into its transpose do not depend on the
        local positions its terms come from."""
        shift = np.random.default_rng(5).integers(0, 3, two_disk.n_triangles)
        rolled = np.take_along_axis(two_disk.triangles, (np.arange(3) + shift[:, None]) % 3, 1)
        mesh = with_oracle_mirrors(Mesh(two_disk.nodes, rolled, two_disk.node_tags))
        at = mesh.nodes[mesh.nodes_with_tag(TAG_OUTER)]
        for datum, parity in ((two_disk.domain.boundary_datum, (-1, 1)),
                              (lambda x, y: x + y, (None, None))):
            con = solver._build_constraints(mesh, kind, datum_values(datum, at))
            assert con.parity == parity
            u = con.expand(np.random.default_rng(6).normal(size=con.n_dof))
            H = con.hess(solver._element_weights(con.elements, u, 4.0, 1e-8))
            assert abs(H - H.T).max() == 0.0

    def test_newton_direction_matches_spsolve(self, two_disk, monkeypatch):
        """The solver's first factor-and-solve against spsolve on the oracle."""
        seen = []
        real = solver.spla.splu

        def splu(A, *args, **kwargs):
            lu = real(A, *args, **kwargs)
            seen.append((A.copy(), lu))
            return lu

        monkeypatch.setattr(solver.spla, "splu", splu)
        monkeypatch.setattr(solver, "_p_ladder", lambda p: [p])  # no continuation
        sol = solve_floating(two_disk, p=4.0)
        monkeypatch.undo()
        assert sol.parity == (-1, 1)

        outer = two_disk.domain.datum_values(two_disk.nodes[two_disk.nodes_with_tag(TAG_OUTER)])
        con = solver._build_constraints(two_disk, "floating", outer)
        P = reduction_oracle(two_disk, "floating", sol.parity)
        u = con.u_fix  # the first iterate: zero free unknowns
        H_ref = (P.T @ hess_full_oracle(two_disk, u, 4.0, sol.eps) @ P).tocsc()
        g_ref = P.T @ grad_full_oracle(two_disk, u, 4.0, sol.eps)
        A, lu = seen[0]
        assert abs(A - H_ref).max() <= 1e-13 * abs(H_ref).max()
        dz = lu.solve(-g_ref)
        dz_ref = spla.spsolve(H_ref, -g_ref)
        assert np.max(np.abs(dz - dz_ref)) <= 1e-10 * np.max(np.abs(dz_ref))


def stop_scales_oracle(mesh, P, u, p, eps):
    """(S, rho) of `_Constraints.stop_scales`: nodal sums over every element
    of the mesh, scattered with np.add.at, gathered into unknowns by |P|."""
    g = gradient_oracle(mesh, u)
    s = eps * eps + np.einsum("ei,ei->e", g, g)
    w1 = mesh.areas * p * s ** (0.5 * p - 1.0)
    abs_b = np.abs(mesh.grads)
    flux = np.abs(np.einsum("eik,ei->ek", mesh.grads, g))
    bound = np.einsum("eik,ei->ek", abs_b, np.einsum("eik,ek->ei", abs_b, np.abs(u)[mesh.triangles]))
    scales = []
    for a in (flux, bound):
        nodal = np.zeros(mesh.n_nodes)
        np.add.at(nodal, mesh.triangles, w1[:, None] * a)
        scales.append(float(np.max(abs(P).T @ nodal)))
    return scales


def quarter_elements(mesh):
    """Mask of the elements with no vertex below the x-axis or left of the
    y-axis."""
    return ~np.any(mesh.nodes[mesh.triangles] < 0.0, axis=(1, 2))


class TestOrbitSums:
    """Under a mirror reduction the Newton sums run over the elements with
    no vertex in a dropped half-plane, areas scaled by the orbit size; a
    mesh with an element across the axis is solved whole, on element
    arrays equal to the mesh's."""

    @staticmethod
    def assert_whole(con, mesh):
        for name in ("triangles", "grads", "areas"):
            assert np.array_equal(getattr(con.elements, name), getattr(mesh, name)), name

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("kind", ["floating", "tied"])
    def test_two_disk_odd(self, two_disk, kind, p):
        mesh = two_disk
        outer = mesh.domain.datum_values(mesh.nodes[mesh.nodes_with_tag(TAG_OUTER)])
        con = solver._build_constraints(mesh, kind, outer)
        assert con.parity == (-1, 1)
        quarter = quarter_elements(mesh)
        assert 4 * np.count_nonzero(quarter) == mesh.n_triangles
        assert np.array_equal(con.elements.triangles, mesh.triangles[quarter])
        assert np.array_equal(con.elements.areas, 4.0 * mesh.areas[quarter])
        u = con.expand(np.random.default_rng(5).normal(size=con.n_dof))
        eps = 1e-8
        assert energy(con.elements, u, p, eps) == pytest.approx(
            energy(mesh, u, p, eps), rel=1e-13, abs=0.0)
        w = solver._element_weights(con.elements, u, p, eps)
        P = reduction_oracle(mesh, kind, (-1, 1))
        for a, b in zip(con.stop_scales(u, w), stop_scales_oracle(mesh, P, u, p, eps)):
            assert a == pytest.approx(b, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("datum", [lambda x, y: y, even_datum], ids=["odd", "even"])
    def test_box_mesh(self, datum, p):
        mesh = box_mesh()
        assert 2 * np.count_nonzero(~np.any(mesh.nodes[mesh.triangles, 1] < 0.0, axis=1)) < (
            mesh.n_triangles)  # some cross
        outer = datum_values(datum, mesh.nodes[mesh.nodes_with_tag(TAG_OUTER)])
        con = solver._build_constraints(mesh, "prescribed", outer, (0.0, None))
        assert con.parity == (None, None)
        self.assert_whole(con, mesh)
        u = con.expand(np.random.default_rng(5).normal(size=con.n_dof))
        eps = 1e-8
        w = solver._element_weights(mesh, u, p, eps)
        P = reduction_oracle(mesh, "prescribed")
        for a, b in zip(con.stop_scales(u, w), stop_scales_oracle(mesh, P, u, p, eps)):
            assert a == pytest.approx(b, rel=1e-13, abs=0.0)

    def test_pair_across_the_axis_is_not_reduced(self):
        # an element crossing the axis and its image
        y = np.array([-0.39, -0.09, 0.48])
        nodes = np.column_stack([np.tile([0.0, 1.0, 0.5], 2), np.concatenate([y, -y])])
        mesh = with_oracle_mirrors(
            Mesh(nodes, np.array([[0, 1, 2], [3, 4, 5]]), np.full(6, TAG_OUTER)))
        assert mesh.mirror is not None
        outer = datum_values(lambda x, y: y, mesh.nodes)
        con = solver._build_constraints(mesh, "prescribed", outer, (0.0, None))
        assert con.parity == (None, None)
        self.assert_whole(con, mesh)

    def test_general_path_sums_over_the_mesh(self, two_disk):
        outer = datum_values(lambda x, y: x + y, two_disk.nodes[two_disk.nodes_with_tag(TAG_OUTER)])
        con = solver._build_constraints(two_disk, "prescribed", outer, (-0.3, 0.4))
        assert con.parity == (None, None)
        self.assert_whole(con, two_disk)

    def test_stiffness_of_the_element_set(self, two_disk):
        """The constraint's B^T B is the mesh's, restricted to the elements
        it sums over; the mesh keeps none."""
        assert not hasattr(two_disk, "stiffness")
        full = np.einsum("eik,eil->ekl", two_disk.grads, two_disk.grads)
        outer = two_disk.domain.datum_values(two_disk.nodes[two_disk.nodes_with_tag(TAG_OUTER)])
        odd = solver._build_constraints(two_disk, "floating", outer)
        v1 = solver._build_constraints(two_disk, "prescribed", 0.0 * outer, (1.0, 0.0))
        assert (odd.parity, v1.parity) == ((-1, 1), (None, 1))
        assert np.array_equal(odd._stiffness, full[quarter_elements(two_disk)])
        right = ~np.any(two_disk.nodes[two_disk.triangles, 0] < 0.0, axis=1)
        assert 2 * np.count_nonzero(right) == two_disk.n_triangles
        assert np.array_equal(v1._stiffness, full[right])
        assert np.array_equal(v1.elements.areas, 2.0 * two_disk.areas[right])


class TestMirrorReduction:
    """Under data that are odd or even in y, or even in x, Newton runs on
    the unknowns of the upper half, the right half or the quarter: each
    dropped node shares its image's."""

    @pytest.mark.parametrize("datum", [lambda x, y: y, even_datum], ids=["odd", "even"])
    def test_mirror_pair_in_one_element(self, datum):
        # elements across the axis: solved whole, as without a mirror
        mesh = box_mesh()
        sol = solve_prescribed(mesh, T1=0.0, p=3.0, datum=datum)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mesh, "mirror", None)
            general = solve_prescribed(mesh, T1=0.0, p=3.0, datum=datum)
        assert sol.parity == general.parity == (None, None)
        assert np.array_equal(sol.u, general.u)
        assert sol.energy == general.energy

    def test_parity_of_the_solves(self, two_disk, floating_p2):
        # (y -> -y, x -> -x): u = y is odd in y and even in x, the unit data
        # and the quadratic datum are even in x only; a fallback to a
        # smaller reduction would lose unknowns' savings silently
        assert floating_p2.parity == (-1, 1)
        assert solve_tied(two_disk).parity == (-1, 1)
        assert solve_linear_aux(two_disk, "v3").parity == (-1, 1)
        assert solve_linear_aux(two_disk, "v1").parity == (None, 1)
        assert solve_linear_aux(two_disk, "v2").parity == (None, 1)
        quadratic = SweepConfig(datum="quadratic").datum_callable()
        assert solve_floating(two_disk, p=2.0, datum=quadratic).parity == (None, 1)
        assert solve_prescribed(two_disk, T1=-0.3, T2=0.4).parity == (None, 1)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_odd_solution_is_exactly_odd(self, two_disk, p):
        mirror, x_mirror = two_disk.mirror, two_disk.x_mirror
        floating = solve_floating(two_disk, p=p)
        assert floating.T1 == -floating.T2
        assert np.array_equal(floating.u[mirror], -floating.u)
        assert np.array_equal(floating.u[x_mirror], floating.u)
        tied = solve_tied(two_disk, p=p)
        assert tied.T1 == tied.T2 == 0.0
        assert np.array_equal(tied.u[mirror], -tied.u)
        assert np.array_equal(tied.u[x_mirror], tied.u)

    @pytest.mark.parametrize("solve", [solve_floating, solve_tied])
    def test_even_datum(self, two_disk, solve):
        sol = solve(two_disk, p=3.0, datum=even_datum)
        assert sol.parity == (1, 1)
        assert sol.T1 == sol.T2
        assert np.array_equal(sol.u[two_disk.mirror], sol.u)
        assert np.array_equal(sol.u[two_disk.x_mirror], sol.u)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(two_disk, "mirror", None)
            mp.setattr(two_disk, "x_mirror", None)
            general = solve(two_disk, p=3.0, datum=even_datum)
        assert general.parity == (None, None)
        for a, b in ((sol.T1, general.T1), (sol.T2, general.T2), (sol.energy, general.energy)):
            assert a == pytest.approx(b, rel=1e-10, abs=0.0)

    @given(
        R=st.floats(0.5, 2.0),
        delta_over_R=st.floats(0.005, 0.05),
        R_out_over_R=st.floats(2.5, 5.0),
        p=st.floats(2.0, 20.0),
    )
    @settings(max_examples=12, deadline=None)
    # the tied solve on the whole mesh took a CG step with max|dz| 3.6e16
    # against max|g| 3.9e3, whose trial energy overflowed
    @example(R=1.0, delta_over_R=0.022538562156174804, R_out_over_R=2.5703125, p=16.6875)
    def test_matches_the_general_solve(self, R, delta_over_R, R_out_over_R, p):
        # on one mesh: the quarter solve against the solve with only the
        # x-mirror removed (the upper half) and with both removed
        pair = ParticlePair(R=R, delta=delta_over_R * R)
        mesh = build_mesh(DomainSpec(pair=pair, R_out=R_out_over_R * R), MeshParams(h_far=0.5 * R))
        for solve in (solve_floating, solve_tied):
            reduced = solve(mesh, p=p)
            assert reduced.parity == (-1, 1)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mesh, "x_mirror", None)
                half = solve(mesh, p=p)
                mp.setattr(mesh, "mirror", None)
                general = solve(mesh, p=p)
            assert (half.parity, general.parity) == ((-1, None), (None, None))
            # the tied potential and both gaps of the tied solve vanish by
            # symmetry, so they are measured against the datum amplitude
            scale = np.max(np.abs(general.u))
            for other in (half, general):
                assert reduced.energy == pytest.approx(other.energy, rel=1e-10, abs=0.0)
                for a, b in ((reduced.T1, other.T1), (reduced.T2, other.T2),
                             (reduced.gap, other.gap)):
                    if solve is solve_floating:
                        assert a == pytest.approx(b, rel=1e-10, abs=0.0)
                    else:
                        assert abs(a - b) <= 1e-10 * scale


class TestFixedValueValidation:
    @pytest.mark.parametrize("T1,T2,datum,named", [
        (math.nan, 0.0, None, "T1=nan"),
        (0.0, -math.inf, None, "T2=-inf"),
        (0.0, 0.0, lambda x, y: np.where(x > 0.0, math.nan, y), "outer boundary"),
    ])
    def test_rejected_before_assembly(self, two_disk, T1, T2, datum, named, monkeypatch):
        def no_constraints(*args):
            raise AssertionError("the constraints were built")

        monkeypatch.setattr(solver, "_build_constraints", no_constraints)
        with pytest.raises(SolverError, match=f"must be finite: .*{named}"):
            solve_prescribed(two_disk, T1=T1, T2=T2, datum=datum)

    def test_datum_of_a_floating_solve(self, two_disk):
        with pytest.raises(SolverError, match="outer boundary"):
            solve_floating(two_disk, datum=lambda x, y: math.inf)


class TestOverflowingFixedValues:
    """Fixed values too large for the exponent are refused by name, with
    the trace of the stages that ran, instead of overflowing in Newton."""

    @pytest.mark.parametrize("T1,T2,p,stages", [
        (1e160, 0.0, 2.0, []),  # the p = 2 energy overflows at the start
        (1e308, -1e308, 2.0, []),  # the span of the fixed values overflows
        (1e60, 0.0, 6.0, [2.0, 3.0, 4.0]),  # p = 2 and 3 converge, p = 4 overflows
    ])
    def test_refused_naming_the_overflow(self, two_disk, T1, T2, p, stages):
        with pytest.raises(SolverError, match=r"overflows.*p=\d.*span") as info:
            solve_prescribed(two_disk, T1=T1, T2=T2, p=p)
        trace = info.value.trace
        assert sorted({entry["p"] for entry in trace}) == stages
        for stage in stages[:-1]:
            last = [entry for entry in trace if entry["p"] == stage][-1]
            assert last["residual"] <= last["tol"]

    def test_large_finite_values_solve(self, two_disk):
        sol = solve_prescribed(two_disk, T1=1e100, T2=0.0, p=2.0)
        assert math.isfinite(sol.energy) and np.all(np.isfinite(sol.u))
        # at p = 2 the minimizer is linear in the fixed values, eps included:
        # with a zero datum it is 1e100 times v1
        zero = solve_prescribed(two_disk, T1=1e100, T2=0.0, p=2.0, datum=lambda x, y: 0.0)
        v1 = solve_linear_aux(two_disk, "v1")
        assert np.allclose(zero.u / 1e100, v1.u, rtol=1e-10, atol=1e-12)


class TestExponentValidation:
    @pytest.mark.parametrize("p", [float("inf"), float("nan"), 1.5])
    def test_rejected_before_the_ladder(self, two_disk, p, monkeypatch):
        # an infinite p once made the continuation ladder grow without end;
        # the solve must raise before it builds one
        def no_ladder(*args):
            raise AssertionError("the p-ladder was built")

        monkeypatch.setattr(solver, "_p_ladder", no_ladder)
        with pytest.raises(SolverError, match="exponent"):
            solve_floating(two_disk, p=p)
