import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplaw.barriers import fit_two_point, radial_gradient
from gaplaw.flux import (
    ExtrapolationUnreliableError,
    FluxError,
    boundary_flux,
    estimate_r0,
    flux_report,
    q_functional,
    r_delta,
    sample_neck_flux,
)
from gaplaw.geometry import AnnulusSpec, DomainSpec, NeckSpec, ParticlePair
from gaplaw.mesh import MeshParams, build_annulus_mesh, build_mesh
from gaplaw.solver import (
    solve_floating,
    solve_linear_aux,
    solve_prescribed,
    solve_tied,
)


@pytest.fixture(scope="module")
def two_disk():
    dom = DomainSpec(pair=ParticlePair(R=1.0, delta=0.04), R_out=4.0)
    return build_mesh(dom)


@pytest.fixture(scope="module")
def neck(two_disk):
    return NeckSpec(two_disk.domain.pair, 0.25)


@pytest.fixture(scope="module")
def floating(two_disk):
    return solve_floating(two_disk, p=2.0)


@pytest.fixture(scope="module")
def tied(two_disk):
    return solve_tied(two_disk, p=2.0)


class TestBoundaryFlux:
    def test_constant_solution_zero(self, two_disk):
        sol = solve_floating(two_disk, p=2.0, datum=lambda x, y: 1.0)
        for curve in ("outer", "particle1", "particle2"):
            assert abs(boundary_flux(sol, curve)) <= 1e-10

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_annulus_radial_flux(self, p):
        # radial profile: flux through any circle is 2 pi r |psi'|^(p-2) psi'
        mesh = build_annulus_mesh(AnnulusSpec(1.0, 2.0), 0.03)
        sol = solve_prescribed(mesh, T1=0.0, p=p, datum=lambda x, y: 1.0)
        prof = fit_two_point(1.0, 0.0, 2.0, 1.0, p=p, d=2)
        gr = radial_gradient(prof, 1.3)
        exact = 2 * math.pi * 1.3 * abs(gr) ** (p - 2) * gr
        inner = boundary_flux(sol, "particle1")
        outer = boundary_flux(sol, "outer")
        # both equal the exact radial flux; conservation ties them together
        assert inner == pytest.approx(exact, rel=2e-4)
        assert outer == pytest.approx(exact, rel=2e-4)
        assert abs(inner - outer) <= 1e-10 * abs(exact)

    def test_line_quadrature_consistent(self, floating):
        # one-sided line quadrature approaches the variational value at
        # discretization accuracy; they are distinct routes
        for curve in ("outer",):
            v = boundary_flux(floating, curve, method="variational")
            l = boundary_flux(floating, curve, method="line")
            assert abs(v - l) <= 0.5

    def test_unknown_curve(self, floating):
        with pytest.raises(FluxError):
            boundary_flux(floating, "everything")

    def test_floating_per_particle_zero(self, floating):
        assert abs(boundary_flux(floating, "particle1")) <= 1e-10
        assert abs(boundary_flux(floating, "particle2")) <= 1e-10


class TestFluxConservation:
    """Criterion 8 across geometries and exponents: a converged floating
    solve balances each particle's flux and a tied solve the combined flux,
    to roundoff relative to the largest flux piece."""

    @given(
        R=st.floats(0.5, 2.0),
        delta_over_R=st.floats(0.005, 0.05),
        R_out_over_R=st.floats(2.5, 5.0),
        p=st.floats(2.0, 6.0),
    )
    @settings(max_examples=12, deadline=None)
    # a geometry whose p = 6 floating defect was 4e-9 when Newton stopped
    # relative to the gradient of the lift state instead of the flux
    @example(R=1.0, delta_over_R=0.046875, R_out_over_R=5.0, p=6.0)
    def test_defects_at_roundoff(self, R, delta_over_R, R_out_over_R, p):
        pair = ParticlePair(R=R, delta=delta_over_R * R)
        mesh = build_mesh(DomainSpec(pair=pair, R_out=R_out_over_R * R), MeshParams(h_far=0.5 * R))
        neck = NeckSpec(pair, 0.25 * R)
        floating = flux_report(solve_floating(mesh, p=p), neck)
        assert max(floating.particle_defects_rel) <= 1e-10
        tied = flux_report(solve_tied(mesh, p=p), neck)
        assert tied.combined_defect_rel <= 1e-10


class TestFluxReport:
    def test_floating_duality(self, floating, neck):
        rep = flux_report(floating, neck)
        assert rep.balance_defect_rel <= 1e-12
        assert max(rep.particle_defects_rel) <= 1e-12
        # neck and far pieces cancel within the particle
        assert rep.flux_s2 + rep.flux_p2_away == pytest.approx(0.0, abs=1e-12 * rep.scale)

    def test_tied_duality(self, tied, neck):
        rep = flux_report(tied, neck)
        assert rep.combined_defect_rel <= 1e-12
        assert rep.balance_defect_rel <= 1e-12
        # per-particle fluxes individually nonzero
        assert abs(rep.flux_p2) > 1.0
        assert rep.flux_p2 == r_delta(tied)

    def test_r_delta_only_for_tied(self, floating, neck):
        assert flux_report(floating, neck).kind == "floating"
        with pytest.raises(FluxError):
            r_delta(floating)

    def test_prescribed_satisfies_neither(self, two_disk, neck):
        # generic pinned potentials (T1 = T2 = 0 would coincide with the
        # tied minimizer under the odd datum and satisfy the combined law)
        sol = solve_prescribed(two_disk, T1=-0.1, T2=0.5, p=2.0)
        rep = flux_report(sol, neck)
        assert min(rep.particle_defects_rel) > 1e-2
        assert rep.combined_defect_rel > 1e-2
        assert rep.balance_defect_rel <= 1e-12


class TestRDelta:
    def test_positive_under_canonical_datum(self, tied, neck):
        assert r_delta(tied) > 0.0
        assert boundary_flux(tied, "particle2_away", neck) > 0.0

    def test_kind_guard(self, floating):
        with pytest.raises(FluxError):
            r_delta(floating)

    def test_neck_split_stability(self, tied, two_disk):
        # moving the window boundary changes the away-flux by at most the
        # near-window flux density times the arc shift
        n1 = NeckSpec(two_disk.domain.pair, 0.125)
        n2 = NeckSpec(two_disk.domain.pair, 0.25)
        a = boundary_flux(tied, "particle2_away", n1)
        b = boundary_flux(tied, "particle2_away", n2)
        assert abs(a - b) <= 2.0 * abs(0.25 - 0.125)

    def test_constant_datum_zero(self, two_disk):
        sol = solve_tied(two_disk, p=2.0, datum=lambda x, y: 1.0)
        assert abs(r_delta(sol)) <= 1e-10

    def test_full_vs_away_within_window_bound(self, tied, two_disk):
        # the two splits differ by the neck-arc flux, bounded by the
        # solution's gradient bound times the window arc length
        from gaplaw.solver import grad_max

        gm = grad_max(tied, "all")[0]
        for w in (0.125, 0.25):
            neck_w = NeckSpec(two_disk.domain.pair, w)
            diff = abs(r_delta(tied) - boundary_flux(tied, "particle2_away", neck_w))
            assert diff <= 2.0 * gm ** (tied.p - 1.0) * neck_w.arc_length()


class TestEstimateR0:
    @staticmethod
    def _ladder(deltas, datum=None, p=2.0):
        """(delta, R_delta) pairs of tied solves on the default mesh."""
        pairs = []
        for delta in deltas:
            kw = {} if datum is None else {"boundary_datum": datum}
            dom = DomainSpec(pair=ParticlePair(R=1.0, delta=delta), R_out=4.0, **kw)
            pairs.append((delta, r_delta(solve_tied(build_mesh(dom), p=p))))
        return pairs

    def test_constant_datum_gives_zero(self):
        est = estimate_r0(self._ladder([0.08, 0.04, 0.02], datum=lambda x, y: 2.0))
        assert abs(est.R0) <= 1e-9

    def test_canonical_ladder(self):
        est = estimate_r0(self._ladder([0.08, 0.04, 0.02, 0.01]))
        assert est.R0 > 0.0
        assert est.max_fit_residual <= 0.05 * est.R0
        assert len(est.ladder) == 4

    def test_sign_flip_with_datum(self):
        a = estimate_r0(self._ladder([0.08, 0.04, 0.02]))
        b = estimate_r0(self._ladder([0.08, 0.04, 0.02], datum=lambda x, y: -y))
        assert a.R0 == pytest.approx(-b.R0, rel=1e-8)

    def test_reproducible_across_refinement(self):
        # no closed form exists; self-convergence across mesh resolutions
        from gaplaw.sweep import SweepConfig, r0_from_records, run_sweep

        values = []
        for h in (0.45, 0.3):
            cfg = SweepConfig(p=2.0, delta_start=0.08, delta_ratio=0.5,
                              delta_count=4, h_far=h)
            values.append(r0_from_records(run_sweep(cfg)).R0)
        assert values[1] == pytest.approx(values[0], rel=0.02)

    def test_ladder_validation(self):
        with pytest.raises(ValueError, match="decreasing"):
            estimate_r0([(0.02, 1.0), (0.04, 1.1), (0.08, 1.2)])
        with pytest.raises(ValueError, match="decreasing"):
            estimate_r0([(0.08, 1.0), (0.04, 1.1), (0.04, 1.2)])
        with pytest.raises(ValueError, match="at least 3"):
            estimate_r0([(0.08, 1.0), (0.04, 1.1)])

    def test_noisy_ladder_rejected(self):
        pairs = [(0.08, 1.0), (0.04, 5.0), (0.02, 1.2), (0.01, 4.8)]
        with pytest.raises(ExtrapolationUnreliableError) as exc:
            estimate_r0(pairs, noise_tol=0.25)
        assert exc.value.ladder == pairs


@pytest.fixture(scope="module")
def aux(two_disk):
    return (
        solve_linear_aux(two_disk, "v1"),
        solve_linear_aux(two_disk, "v2"),
        solve_linear_aux(two_disk, "v3"),
    )


class TestQFunctional:

    def test_zero_datum_zero_q(self, two_disk, aux):
        v1, v2, _ = aux
        v3z = solve_linear_aux(two_disk, "v3", datum=lambda x, y: 0.0)
        rep = q_functional(v1, v2, v3z)
        assert rep.Q == pytest.approx(0.0, abs=1e-12)

    def test_reciprocity(self, aux):
        rep = q_functional(*aux)
        assert rep.reciprocity_defect <= 1e-8

    def test_identity_and_sign(self, aux, tied):
        rep = q_functional(*aux)
        assert rep.identity_defect <= 1e-6 * abs(rep.Q)
        assert rep.minus_b_sum > 0.0
        assert np.sign(rep.Q) == np.sign(rep.R_delta)
        # superposed tied solution matches the genuine tied solve
        assert rep.R_delta == pytest.approx(r_delta(tied), rel=1e-10)
        assert rep.T_tied == pytest.approx(tied.T1, abs=1e-10)

    def test_mesh_mismatch_rejected(self, two_disk, aux):
        other = build_mesh(DomainSpec(pair=ParticlePair(R=1.0, delta=0.02), R_out=4.0))
        v1o = solve_linear_aux(other, "v1")
        with pytest.raises(FluxError):
            q_functional(v1o, aux[1], aux[2])


class TestSampleNeckFlux:
    def test_positive_and_near_leading(self, floating, neck):
        xs, measured, slack = sample_neck_flux(floating, neck)
        assert len(xs) >= 10
        assert np.all(np.abs(xs) <= neck.w)
        assert np.all(measured > 0.0)
        pair = neck.pair
        leading = floating.gap / (pair.delta + xs**2 / pair.R)
        assert np.max(np.abs(measured / leading - 1.0)) <= 0.2
        assert np.all(slack >= 0.0)
