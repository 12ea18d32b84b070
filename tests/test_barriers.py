import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplaw.flux import sample_neck_flux
from gaplaw.geometry import (
    DomainSpec,
    NeckSpec,
    ParticlePair,
    barrier_flux_bound,
    upper_barrier_outer_radius,
)
from gaplaw.mesh import MeshParams, build_mesh
from gaplaw.solver import grad_max, solve_floating
from gaplaw.sweep import verify_barrier
from radial import (
    BarrierValidityError,
    RadialDomainError,
    RadialProfile,
    beta_exponent,
    fit_two_point,
    lower_barrier_radii,
    radial_eval,
    radial_gradient,
)


@lru_cache(maxsize=64)
def _symbolic_residual(p: float, d: int, branch: str):
    """Lambdified radial p-Laplacian of the closed-form profile.

    Builds psi(r) symbolically with the package's exponent, differentiates,
    and assembles (|psi'|^(p-2) psi' r^(d-1))' / r^(d-1) without
    simplification, so the returned callable measures genuine cancellation
    rather than an algebraic identity.
    """
    import sympy as sp

    r = sp.Symbol("r", positive=True)
    amp = sp.Symbol("amp", real=True, nonzero=True)
    if branch == "log":
        psi = amp * sp.log(r)
    else:
        psi = amp * r ** sp.Float(beta_exponent(p, d))
    dpsi = sp.diff(psi, r)
    flux = sp.Abs(dpsi) ** (sp.Float(p) - 2) * dpsi * r ** (d - 1)
    residual = sp.diff(flux, r) / r ** (d - 1)
    return sp.lambdify((r, amp), residual, modules="math")


def plaplace_residual(profile: RadialProfile, r: float) -> float:
    """Radial p-Laplacian of the profile at r, by symbolic differentiation:
    the exactness oracle of the closed forms.  Zero (to rounding) for every
    admissible profile; a constant profile (a = 0) has zero gradient and
    residual 0."""
    if r <= 0.0:
        raise RadialDomainError(f"radius must be positive, got {r}")
    if profile.a == 0.0:
        return 0.0
    fn = _symbolic_residual(float(profile.p), int(profile.d), profile.branch)
    val = fn(r, profile.a)
    return float(val.real if isinstance(val, complex) else val)


class TestRadialProfile:
    def test_branch_selection(self):
        assert RadialProfile(a=1, b=0, p=2, d=2).branch == "log"
        assert RadialProfile(a=1, b=0, p=3, d=3).branch == "log"
        assert RadialProfile(a=1, b=0, p=3, d=2).branch == "power"
        assert RadialProfile(a=1, b=0, p=2, d=3).branch == "power"

    def test_beta(self):
        assert beta_exponent(3, 2) == pytest.approx(0.5)
        assert beta_exponent(2, 3) == pytest.approx(-1.0)
        assert beta_exponent(4, 3) == pytest.approx(1.0 / 3.0)


class TestRadialEval:
    def test_constant_profile(self):
        prof = RadialProfile(a=0.0, b=2.5, p=3, d=2)
        for r in (0.1, 1.0, 7.0):
            assert radial_eval(prof, r) == 2.5

    def test_power_substitution(self):
        prof = RadialProfile(a=2.0, b=1.0, p=3, d=2)  # beta = 1/2
        assert radial_eval(prof, 4.0) == pytest.approx(5.0)

    def test_log_branch(self):
        prof = RadialProfile(a=1.0, b=0.0, p=2, d=2)
        assert radial_eval(prof, math.e) == pytest.approx(1.0)

    def test_domain_error(self):
        prof = RadialProfile(a=1.0, b=0.0, p=3, d=2)
        with pytest.raises(RadialDomainError):
            radial_eval(prof, 0.0)
        with pytest.raises(RadialDomainError):
            radial_gradient(prof, -1.0)


class TestFitTwoPoint:
    def test_constant_data(self):
        prof = fit_two_point(1.0, 0.7, 2.0, 0.7, p=3, d=2)
        assert prof.a == 0.0
        assert prof.b == 0.7

    def test_hand_solved_system(self):
        # p=3, d=2 (beta=1/2): a (2 - 1) = 1, b = -a
        prof = fit_two_point(1.0, 0.0, 4.0, 1.0, p=3, d=2)
        assert prof.a == pytest.approx(1.0)
        assert prof.b == pytest.approx(-1.0)

    def test_degenerate_interval(self):
        with pytest.raises(RadialDomainError):
            fit_two_point(1.0, 0.0, 1.0, 1.0, p=3, d=2)

    @given(
        r1=st.floats(0.05, 1.0),
        dr=st.floats(0.1, 5.0),
        v1=st.floats(-2.0, 2.0),
        v2=st.floats(-2.0, 2.0),
        p=st.sampled_from([2.0, 2.5, 3.0, 4.0, 6.0]),
        d=st.sampled_from([2, 3]),
    )
    @settings(max_examples=80)
    def test_round_trip(self, r1, dr, v1, v2, p, d):
        r2 = r1 + dr
        prof = fit_two_point(r1, v1, r2, v2, p, d)
        span = max(abs(v1), abs(v2), 1.0)
        assert radial_eval(prof, r1) == pytest.approx(v1, abs=1e-12 * span)
        assert radial_eval(prof, r2) == pytest.approx(v2, abs=1e-12 * span)

    @given(
        r1=st.floats(0.05, 1.0),
        dr=st.floats(0.1, 5.0),
        p=st.sampled_from([2.5, 3.0, 4.0]),
        d=st.sampled_from([2, 3]),
    )
    @settings(max_examples=40)
    def test_fit_sign_tracks_data(self, r1, dr, p, d):
        # increasing data with beta > 0 gives a > 0; beta < 0 flips the sign
        prof = fit_two_point(r1, 0.0, r1 + dr, 1.0, p, d)
        beta = beta_exponent(p, d)
        if beta > 0:
            assert prof.a > 0
        elif beta < 0:
            assert prof.a < 0


class TestRadialGradient:
    def test_zero_amplitude(self):
        assert radial_gradient(RadialProfile(a=0, b=1, p=3, d=2), 0.5) == 0.0

    def test_power_value(self):
        assert radial_gradient(RadialProfile(a=1, b=0, p=3, d=2), 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("p,d", [(3, 2), (4, 3), (2, 2)])
    def test_matches_finite_difference(self, p, d):
        prof = RadialProfile(a=1.3, b=-0.2, p=p, d=d)
        r, h = 0.7, 1e-6
        fd = (radial_eval(prof, r + h) - radial_eval(prof, r - h)) / (2 * h)
        assert radial_gradient(prof, r) == pytest.approx(fd, rel=1e-6)


class TestPLaplaceResidual:
    def test_zero_amplitude(self):
        assert plaplace_residual(RadialProfile(a=0, b=1, p=3, d=2), 1.0) == 0.0

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_power_solution_exact(self, r):
        prof = RadialProfile(a=1.0, b=0.0, p=3, d=2)
        assert abs(plaplace_residual(prof, r)) <= 1e-10

    def test_log_branch_exact(self):
        prof = RadialProfile(a=1.0, b=0.0, p=2, d=2)
        assert abs(plaplace_residual(prof, 0.3)) <= 1e-10

    @given(
        a=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3),
        b=st.floats(-2.0, 2.0),
        p=st.sampled_from([2.0, 2.5, 3.0, 4.0, 6.0]),
        d=st.sampled_from([2, 3]),
        r=st.floats(0.05, 8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_exactness_everywhere(self, a, b, p, d, r):
        prof = RadialProfile(a=a, b=b, p=p, d=d)
        scale = max(1.0, abs(a)) ** (p - 1)
        assert abs(plaplace_residual(prof, r)) <= 1e-10 * scale


class TestMeanValueSandwich:
    @given(
        r1=st.floats(0.01, 2.0),
        dr=st.floats(1e-3, 5.0),
        p=st.sampled_from([2.5, 3.0, 4.0, 6.0]),
        d=st.sampled_from([2, 3]),
    )
    @settings(max_examples=100)
    def test_endpoint_gradients_bracket_mean_slope(self, r1, dr, p, d):
        # the barrier chain compares the profile's endpoint gradients with
        # the mean slope: the outer-radius value under-shoots and the
        # inner-radius value over-shoots, for every beta <= 1
        beta = beta_exponent(p, d)
        if abs(beta) < 1e-12 or beta > 1.0:
            return
        r2 = r1 + dr
        mean = (r2**beta - r1**beta) / (r2 - r1)
        outer = beta * r2 ** (beta - 1.0)
        inner = beta * r1 ** (beta - 1.0)
        ratio_out = outer / mean
        ratio_in = inner / mean
        assert ratio_out <= 1.0 + 1e-12
        assert ratio_in >= 1.0 - 1e-12


PAIR = ParticlePair(R=1.0, delta=1e-3)


def leading(x, dT, pair):
    """The leading-order neck flux (T2 - T1)/(delta + x^2/R) the bounds sandwich."""
    return dT / (pair.delta + x * x / pair.R)


class TestBarrierFluxBound:
    def test_no_gap(self):
        lower, upper = barrier_flux_bound(0.1, 0.5, 0.5, PAIR, C_slack=0.7)
        assert upper == pytest.approx(0.7)
        assert lower == pytest.approx(-0.7)

    def test_leading_at_axis(self):
        pair = ParticlePair(R=1.0, delta=0.01)
        lower, upper = barrier_flux_bound(0.0, 0.0, 0.1, pair, C_slack=0.0)
        assert leading(0.0, 0.1, pair) == pytest.approx(10.0)
        assert upper == pytest.approx(10.0 * 1.02)
        assert lower == pytest.approx(10.0 / 1.02)

    def test_leading_off_axis(self):
        lower, upper = barrier_flux_bound(0.05, 0.0, 0.1, PAIR, C_slack=0.2)
        lead = leading(0.05, 0.1, PAIR)
        assert lead == pytest.approx(28.571, abs=1e-2)
        assert lower <= lead <= upper

    def test_swap_labels_error(self):
        with pytest.raises(ValueError):
            barrier_flux_bound(0.0, 1.0, 0.0, PAIR, C_slack=0.1)

    @given(
        x=st.floats(-0.25, 0.25),
        delta=st.floats(1e-5, 0.05),
        dT=st.floats(1e-4, 1.0),
        C=st.floats(0.0, 2.0),
    )
    @settings(max_examples=100)
    def test_sandwich_order(self, x, delta, dT, C):
        pair = ParticlePair(R=1.0, delta=delta)
        lower, upper = barrier_flux_bound(x, 0.0, dT, pair, C_slack=C)
        assert lower <= upper
        assert lower <= leading(x, dT, pair) * (1.0 + 2.0 * delta)

    @given(
        x_over_R=st.floats(-0.9, 0.9),
        R=st.floats(0.1, 10.0),
        delta_over_R=st.floats(1e-5, 0.05),
        dT=st.floats(1e-4, 1.0),
        C=st.floats(0.0, 2.0),
    )
    @settings(max_examples=100)
    def test_scale_invariant(self, x_over_R, R, delta_over_R, dT, C):
        # lengths and potentials scaled together leave gradients unchanged;
        # lam = 4 is a power of two, so the scaling is exact in floating point
        lam = 4.0
        x, delta = x_over_R * R, delta_over_R * R
        base = barrier_flux_bound(x, 0.0, dT, ParticlePair(R=R, delta=delta), C_slack=C)
        scaled = barrier_flux_bound(
            lam * x, 0.0, lam * dT, ParticlePair(R=lam * R, delta=lam * delta), C_slack=C
        )
        assert scaled == base

    def test_bounds_tighten_to_leading_at_axis(self):
        # with x = 0 both barrier separations equal delta, so the ratio of
        # either bound to the leading term converges to 1 like c*delta
        dT, C = 0.3, 0.05
        for delta in (1e-3, 1e-4, 1e-5):
            pair = ParticlePair(R=1.0, delta=delta)
            lead = leading(0.0, dT, pair)
            for v in barrier_flux_bound(0.0, 0.0, dT, pair, C_slack=C):
                assert abs(v / lead - 1.0) <= 2.0 * 2.0 * delta + C / lead

    def test_out_of_validity_falls_back(self):
        pair = ParticlePair(R=1.0, delta=0.01)
        lower, upper = barrier_flux_bound(0.6, 0.0, 0.1, pair, C_slack=0.1)
        with pytest.raises(BarrierValidityError):
            lower_barrier_radii(0.6, pair.delta, pair)
        one = 1.0 + 2.0 * pair.delta
        gap_quad = pair.delta + 0.6 * 0.6 / pair.R
        assert lower == 0.1 / (gap_quad * one) / one - 0.1
        assert lower <= upper

    def test_array_matches_per_offset_oracle(self):
        """One call over an array of offsets gives, offset by offset, the
        bounds of the per-sample construction with its validity error."""
        pair = ParticlePair(R=1.0, delta=0.01)
        xs = np.linspace(-0.6, 0.6, 61)  # the lower window is |x| <= 0.4925
        dT, C = 0.1, 0.3
        lower, upper = barrier_flux_bound(xs, -0.05, 0.05, pair, C_slack=C)
        one = 1.0 + 2.0 * pair.delta / pair.R
        n_valid = 0
        for i, x in enumerate(xs.tolist()):
            r2 = upper_barrier_outer_radius(x, pair.delta, pair)
            try:
                gap_l = lower_barrier_radii(x, pair.delta, pair)[1] - pair.delta
                n_valid += 1
            except BarrierValidityError:
                gap_l = (pair.delta + x * x / pair.R) * one
            assert upper[i] == dT / (r2 - pair.delta) * one + C
            assert lower[i] == dT / gap_l / one - C
        assert 0 < n_valid < len(xs)
        lead = leading(xs, dT, pair)
        assert np.all((lower <= lead) & (lead <= upper))


class TestSandwichOfFloatingSolves:
    @given(
        R=st.floats(0.5, 2.0),
        delta_over_R=st.floats(0.005, 0.05),
        R_out_over_R=st.floats(2.5, 5.0),
        p=st.floats(2.0, 6.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_every_sample_well_inside(self, R, delta_over_R, R_out_over_R, p):
        """The neck field of a floating solve lies inside the sandwich at
        every sample, and at least 0.3 of the sandwich width from either
        bound (the least measured is 0.41), across geometries and p."""
        pair = ParticlePair(R=R, delta=delta_over_R * R)
        mesh = build_mesh(DomainSpec(pair=pair, R_out=R_out_over_R * R), MeshParams(h_far=0.5 * R))
        neck = NeckSpec(pair, 0.25 * R)
        sol = solve_floating(mesh, p=p)
        assert verify_barrier(sol, neck, p=p).coverage == 1.0
        xs, measured = sample_neck_flux(sol, neck)
        lower, upper = barrier_flux_bound(xs, sol.T1, sol.T2, pair, grad_max(sol, "away", neck)[0])
        position = (measured - lower) / (upper - lower)
        assert np.all((0.3 <= position) & (position <= 0.7)), (position.min(), position.max())
