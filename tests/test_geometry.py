import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplaw.geometry import (
    AnnulusSpec,
    DomainSpec,
    GeometryError,
    NeckSpec,
    ParticlePair,
    gap_width,
    lower_barrier_outer_radius,
    upper_barrier_outer_radius,
)
from radial import BarrierValidityError, lower_barrier_radii

PAIR = ParticlePair(R=1.0, delta=0.01)


def parabola(x, pair: ParticlePair):
    """The leading-order gap width delta + x^2/R."""
    return pair.delta + x * x / pair.R


class TestParticlePair:
    def test_center_separation(self):
        c1, c2 = PAIR.center1, PAIR.center2
        assert c1 == (0.0, -1.005)
        assert c2 == (0.0, 1.005)

    def test_invalid(self):
        with pytest.raises(GeometryError):
            ParticlePair(R=-1.0, delta=0.1)
        with pytest.raises(GeometryError):
            ParticlePair(R=1.0, delta=-0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(GeometryError, match=r"\bR\b"):
                ParticlePair(R=bad, delta=0.1)
            with pytest.raises(GeometryError, match="delta"):
                ParticlePair(R=1.0, delta=bad)

    def test_arcs_meet_gap(self):
        assert PAIR.upper_arc_y(0.0) == pytest.approx(0.005)
        assert PAIR.lower_arc_y(0.0) == pytest.approx(-0.005)


class TestGapWidth:
    def test_touching_axis_value(self):
        for delta in (0.0, 0.01, 0.3):
            pair = ParticlePair(R=2.0, delta=delta)
            assert gap_width(0.0, pair) == pytest.approx(delta, abs=1e-15)

    def test_exact_circle_value(self):
        # 2.01 - 2 sqrt(0.99), evaluated independently
        expected = 2.01 - 2.0 * math.sqrt(0.99)
        assert gap_width(0.1, PAIR) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.0200251, abs=5e-8)

    def test_domain_error(self):
        with pytest.raises(GeometryError):
            gap_width(1.0, PAIR)
        with pytest.raises(GeometryError):
            gap_width(-1.5, PAIR)

    @given(
        x=st.floats(-0.95, 0.95),
        delta=st.floats(0.0, 0.5),
    )
    def test_exact_dominates_quadratic(self, x, delta):
        pair = ParticlePair(R=1.0, delta=delta)
        exact = gap_width(x, pair)
        quad = parabola(x, pair)
        assert exact >= quad - 1e-14
        assert quad >= delta

    def test_quartic_remainder_bounded(self):
        # (exact - quadratic) / x^4 stays below 0.5 out to |x| = 0.3 for R = 1
        for x in np.linspace(1e-3, 0.3, 50):
            rem = gap_width(x, PAIR) - parabola(x, PAIR)
            assert 0.0 <= rem <= 0.5 * x**4


class TestUpperBarrier:
    def test_collapses_to_delta_at_axis(self):
        r2 = upper_barrier_outer_radius(0.0, 0.01, PAIR)
        assert r2 - 0.01 == pytest.approx(0.01, abs=1e-16)

    def test_quadratic_term(self):
        r2 = upper_barrier_outer_radius(0.1, 0.01, PAIR)
        assert r2 == pytest.approx(0.02 + 0.5 * 0.99 * 1.99 * 0.01, rel=1e-14)
        assert r2 == pytest.approx(0.0298505, abs=1e-7)

    def test_prefactor_vanishes_at_r1_eq_R(self):
        # at the boundary of validity the quadratic term has a zero prefactor
        r1 = 1.0 - 1e-12
        r2 = upper_barrier_outer_radius(0.5, r1, PAIR)
        assert r2 == pytest.approx(PAIR.delta + r1, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(GeometryError):
            upper_barrier_outer_radius(0.1, 0.0, PAIR)
        with pytest.raises(GeometryError):
            upper_barrier_outer_radius(0.1, 1.5, PAIR)

    @given(x=st.floats(-0.9, 0.9), r1=st.floats(1e-6, 0.99))
    def test_even_and_monotone_in_x(self, x, r1):
        r2 = upper_barrier_outer_radius(x, r1, PAIR)
        r2m = upper_barrier_outer_radius(-x, r1, PAIR)
        assert r2 == r2m
        r2w = upper_barrier_outer_radius(x * 0.5, r1, PAIR)
        assert r2 >= r2w - 1e-15


def _tangency_defect(x: float, rho1: float, rho2: float, pair: ParticlePair) -> float:
    """|X - c2| - (R - rho1) for the point X at distance rho2 beyond the
    surface point of particle 1 above x, on the ray from its center c1:
    zero when the circle of radius rho1 about X touches particle 2 from
    inside, which is what defines rho2."""
    R = pair.R
    (a1, b1), (a2, b2) = pair.center1, pair.center2
    ex = x / R
    ey = math.sqrt(1.0 - ex * ex)
    return math.hypot(a1 + (R + rho2) * ex - a2, b1 + (R + rho2) * ey - b2) - (R - rho1)


class TestLowerBarrier:
    def test_collapses_to_delta_at_axis(self):
        rho2, valid = lower_barrier_outer_radius(0.0, 0.01, PAIR)
        assert valid
        assert rho2 - 0.01 == pytest.approx(0.01, abs=1e-12)

    def test_exact_value_and_gap_bound(self):
        rho2, valid = lower_barrier_outer_radius(0.05, 0.01, PAIR)
        assert valid
        # the defining tangency, independent of the closed form
        assert abs(_tangency_defect(0.05, 0.01, float(rho2), PAIR)) <= 16 * math.ulp(PAIR.R)
        gap = PAIR.delta + 0.05**2 / PAIR.R
        assert rho2 - 0.01 <= gap * (1.0 + 2.0 * PAIR.delta)

    @given(
        R=st.floats(0.1, 10.0),
        delta_rel=st.floats(1e-6, 0.2),
        rho1_rel=st.floats(1e-4, 0.9),
        x_rel=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    @example(R=0.75, delta_rel=0.125, rho1_rel=0.5, x_rel=1.0)  # a radicand of -6.9e-18 at the edge
    def test_inner_circle_touches_particle2(self, R, delta_rel, rho1_rel, x_rel):
        pair = ParticlePair(R=R, delta=delta_rel * R)
        rho1 = rho1_rel * R
        x = x_rel * R * (R - rho1) / (2.0 * R + pair.delta)  # inside the window
        rho2, valid = lower_barrier_outer_radius(x, rho1, pair)
        assert valid
        assert abs(_tangency_defect(x, rho1, float(rho2), pair)) <= 16 * math.ulp(R)

    def test_out_of_validity(self):
        # validity window is |x| <= R (R - rho1)/(2R + delta)
        xmax = 1.0 * (1.0 - 0.01) / (2.0 + 0.01)
        rho2, valid = lower_barrier_outer_radius(xmax * 1.01, 0.01, PAIR)
        assert not valid and math.isnan(rho2)
        rho2, valid = lower_barrier_outer_radius(xmax * 0.99, 0.01, PAIR)
        assert valid and math.isfinite(rho2)

    def test_mask_where_the_scalar_form_raises(self):
        xs = np.linspace(-0.7, 0.7, 57)
        rho2, valid = lower_barrier_outer_radius(xs, 0.01, PAIR)
        for x, r, ok in zip(xs.tolist(), rho2, valid):
            if ok:
                assert lower_barrier_radii(x, 0.01, PAIR)[1] == r
            else:
                assert math.isnan(r)
                with pytest.raises(BarrierValidityError):
                    lower_barrier_radii(x, 0.01, PAIR)
        assert 0 < np.count_nonzero(valid) < len(xs)

    @given(
        R=st.floats(0.1, 10.0),
        delta_rel=st.floats(1e-6, 0.2),
        rho1_rel=st.floats(1e-4, 0.9),
        x_rel=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=200)
    def test_oracle_gives_the_library_bits(self, R, delta_rel, rho1_rel, x_rel):
        """The scalar oracle of tests/radial.py returns the library's bits
        where the barrier exists and raises exactly where it does not."""
        pair = ParticlePair(R=R, delta=delta_rel * R)
        rho1, x = rho1_rel * R, x_rel * R
        rho2, valid = lower_barrier_outer_radius(x, rho1, pair)
        if valid:
            assert lower_barrier_radii(x, rho1, pair)[1].hex() == float(rho2).hex()
        else:
            assert math.isnan(rho2)
            with pytest.raises(BarrierValidityError):
                lower_barrier_radii(x, rho1, pair)

    def test_agrees_with_upper_at_axis(self):
        r2 = upper_barrier_outer_radius(0.0, 0.02, PAIR)
        rho2, _ = lower_barrier_outer_radius(0.0, 0.02, PAIR)
        assert r2 == pytest.approx(rho2, abs=1e-12)

    def test_lower_gap_dominates_upper_gap_in_window(self):
        pair = ParticlePair(R=1.0, delta=1e-3)
        xs = np.linspace(0.0, 0.3, 31)
        rho2, valid = lower_barrier_outer_radius(xs, pair.delta, pair)
        assert valid.all()
        for x, r in zip(xs, rho2):
            r2 = upper_barrier_outer_radius(x, pair.delta, pair)
            assert r >= r2 - 1e-15


class TestScaleCovariance:
    @given(
        lam=st.floats(0.1, 10.0),
        x=st.floats(-0.5, 0.5),
        delta=st.floats(1e-6, 0.2),
        r1=st.floats(1e-4, 0.5),
    )
    @settings(max_examples=50)
    def test_all_lengths_scale(self, lam, x, delta, r1):
        pair = ParticlePair(R=1.0, delta=delta)
        scaled = ParticlePair(R=lam, delta=lam * delta)
        for width in (gap_width, parabola):
            a = width(x, pair)
            b = width(lam * x, scaled)
            assert b == pytest.approx(lam * a, rel=1e-10, abs=1e-14 * lam)
        r2 = upper_barrier_outer_radius(x, r1, pair)
        r2s = upper_barrier_outer_radius(lam * x, lam * r1, scaled)
        assert r2s == pytest.approx(lam * r2, rel=1e-10)
        # the lower-barrier validity window scales too; stay inside it
        if abs(x) < 0.95 * (1.0 - r1) / (2.0 + delta):
            rho2, _ = lower_barrier_outer_radius(x, r1, pair)
            rho2s, _ = lower_barrier_outer_radius(lam * x, lam * r1, scaled)
            assert rho2s == pytest.approx(lam * rho2, rel=1e-9)


class TestNeckRegion:
    def test_membership(self):
        neck = NeckSpec(PAIR, 0.1)
        assert neck.contains(0.0, 0.0)
        assert not neck.contains(0.2, 0.0)
        assert not neck.contains(0.05, 0.3)

    def test_invalid_width(self):
        with pytest.raises(GeometryError):
            NeckSpec(PAIR, 1.5)


class TestDomainSpec:
    def test_particles_must_fit(self):
        # the clearance a sweep keeps is SweepConfig.domain's check
        with pytest.raises(GeometryError, match="do not fit"):
            DomainSpec(pair=ParticlePair(R=1.0, delta=0.1), R_out=2.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(GeometryError, match="R_out"):
                DomainSpec(pair=PAIR, R_out=bad)
        dom = DomainSpec(pair=PAIR, R_out=2.5)
        assert dom.boundary_margin == pytest.approx(2.5 - 2.005)
        assert [f.name for f in dataclasses.fields(DomainSpec)] == [
            "pair", "R_out", "boundary_datum"]

    def test_datum_values_on_arrays(self):
        pts = np.array([[4.0, 0.0], [0.0, 4.0], [-2.0, -3.0]])
        dom = DomainSpec(pair=PAIR, R_out=4.0)
        assert dom.datum_values(pts).tolist() == [0.0, 4.0, -3.0]
        const = DomainSpec(pair=PAIR, R_out=4.0, boundary_datum=lambda x, y: 2.5)
        assert const.datum_values(pts).tolist() == [2.5, 2.5, 2.5]
        assert dom.datum_values(np.empty((0, 2))).shape == (0,)

    def test_annulus_validation(self):
        with pytest.raises(GeometryError):
            AnnulusSpec(2.0, 1.0)
