import math

import mpmath
import numpy as np
import pytest

from gaplaw.asymptotics import (
    LogCaseError,
    UnsupportedRegimeError,
    c_o_quadrature,
    c_o_table,
    gamma_exponent,
    is_log_case,
    predict,
    table_consistency_report,
    wallis_product,
)
from neck import neck_integral


class TestGammaExponent:
    def test_d2_values(self):
        assert gamma_exponent(2, 2) == pytest.approx(0.5)
        assert gamma_exponent(3, 2) == pytest.approx(1.5)
        assert gamma_exponent(4, 2) == pytest.approx(2.5)

    def test_d3_values(self):
        assert gamma_exponent(3, 3) == pytest.approx(1.0)
        assert gamma_exponent(4, 3) == pytest.approx(2.0)

    def test_log_case_marker(self):
        assert is_log_case(2, 3)
        with pytest.raises(LogCaseError):
            gamma_exponent(2, 3)

    def test_unsupported_regime(self):
        with pytest.raises(UnsupportedRegimeError):
            gamma_exponent(2.5, 3)

    @pytest.mark.parametrize("p,d", [(2, 2), (2.5, 2), (3, 2), (4, 2), (6, 2),
                                     (2.5, 3), (3, 3), (4, 3), (6, 3)])
    def test_matches_quadrature_slope(self, p, d):
        # the closed forms are only trusted because this oracle confirms
        # them: fit log J vs log delta inside the asymptotic regime
        deltas = np.geomspace(1e-8, 1e-6, 5)
        J = [neck_integral(dd, 0.9, 1.0, p, d) for dd in deltas]
        slope = np.polyfit(np.log(deltas), np.log(J), 1)[0]
        target = p - 1.5 if d == 2 else p - 2.0
        assert slope == pytest.approx(-target, abs=1e-3)
        if d <= p:
            assert gamma_exponent(p, d) == pytest.approx(target)


class TestWallisProduct:
    def test_empty_product(self):
        assert wallis_product(2) == 1.0

    def test_values(self):
        assert wallis_product(3) == pytest.approx(0.5)
        assert wallis_product(4) == pytest.approx(3.0 / 8.0)
        assert wallis_product(5) == pytest.approx(5.0 / 16.0)
        assert wallis_product(6) == pytest.approx(35.0 / 128.0)

    def test_consistency_with_d2_rows(self):
        # the general row reproduces the explicit p = 2 row
        assert c_o_table(2, 2, 1.0) == pytest.approx(math.pi * wallis_product(2))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            wallis_product(1)


class TestCOTable:
    def test_printed_d2_cells(self):
        assert c_o_table(2, 2, 1.0) == pytest.approx(math.pi)
        assert c_o_table(3, 2, 1.0) == pytest.approx(math.pi / 2)
        assert c_o_table(4, 2, 4.0) == pytest.approx(3 * math.pi / 4)

    def test_printed_d3_cells(self):
        assert c_o_table(3, 3, 1.0) == pytest.approx(math.pi / 2)
        assert c_o_table(4, 3, 1.0) == pytest.approx(math.pi / 8)

    def test_log_cell_refused(self):
        with pytest.raises(LogCaseError):
            c_o_table(2, 3, 1.0)

    def test_non_integer_refused(self):
        with pytest.raises(ValueError):
            c_o_table(2.5, 2, 1.0)


class TestNeckIntegral:
    def test_exact_antiderivative_p2_d2(self):
        delta, w, R = 1e-4, 0.1, 1.0
        exact = math.sqrt(R / delta) * 2.0 * math.atan(w / math.sqrt(R * delta))
        got = neck_integral(delta, w, R, 2, 2)
        assert got == pytest.approx(exact, rel=1e-9)

    def test_exact_antiderivative_d3(self):
        # substitute s = delta + r^2/R: pi R (delta^(2-p) - (delta+w^2/R)^(2-p))/(p-2)
        delta, w, R, p = 1e-5, 0.2, 2.0, 4
        exact = math.pi * R * (delta ** (2 - p) - (delta + w * w / R) ** (2 - p)) / (p - 2)
        got = neck_integral(delta, w, R, p, 3)
        assert got == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("delta", [1e-4, 1e-12])
    @pytest.mark.parametrize("w,R", [(0.9, 1.0), (0.2, 2.0)])
    @pytest.mark.parametrize("p,F", [
        (2, math.atan),
        (2.5, lambda t: t / math.sqrt(1.0 + t * t)),
        (3, lambda t: t / (2.0 * (1.0 + t * t)) + math.atan(t) / 2.0),
    ], ids=["p2", "p2.5", "p3"])
    def test_exact_antiderivative_d2(self, p, F, w, R, delta):
        # x = sqrt(R delta) t with F' = (1+t^2)^(1-p): sqrt(R delta) delta^(1-p) [F]_{-T}^{T}
        T = w / math.sqrt(R * delta)
        exact = math.sqrt(R * delta) * delta ** (1 - p) * 2.0 * F(T)
        assert neck_integral(delta, w, R, p, 2) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("delta", [1e-4, 1e-12])
    @pytest.mark.parametrize("w,R", [(0.9, 1.0), (0.2, 2.0)])
    @pytest.mark.parametrize("p", [2.5, 3, 4.5])
    def test_exact_antiderivative_d3_exponents(self, p, w, R, delta):
        exact = math.pi * R * (delta ** (2 - p) - (delta + w * w / R) ** (2 - p)) / (p - 2)
        assert neck_integral(delta, w, R, p, 3) == pytest.approx(exact, rel=1e-13)

    def test_scaled_limit_p3(self):
        got = 1e-6 ** 1.5 * neck_integral(1e-6, 0.1, 1.0, 3, 2)
        assert got == pytest.approx(math.pi / 2, rel=5e-3)

    def test_wide_window_wallis_limit(self):
        # x = sqrt(R delta) t turns the integral into the Wallis form; a wide
        # window at tiny delta realizes the whole-line limit
        for p in (2, 3, 4, 6):
            got = 1e-8 ** (p - 1.5) * neck_integral(1e-8, 0.9, 1.0, p, 2)
            assert got == pytest.approx(math.pi * wallis_product(p), rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            neck_integral(0.0, 0.1, 1.0, 2, 2)
        with pytest.raises(ValueError):
            neck_integral(1e-4, -0.1, 1.0, 2, 2)


class TestCOQuadrature:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("R", [1.0, 4.0])
    def test_matches_table_d2(self, p, R):
        got = c_o_quadrature(p, 2, R)
        assert got == pytest.approx(c_o_table(p, 2, R), rel=1e-4)

    def test_non_integer_p(self):
        # int (1+t^2)^(-3/2) dt = 2, so the constant is 2 sqrt(R)
        assert c_o_quadrature(2.5, 2, 1.0) == pytest.approx(2.0, rel=1e-6)

    def test_window_independence(self):
        # the closed-form limit against delta^gamma * J at a tiny delta,
        # whatever the window width; (2.5, 3) and (2, 3) are not allowed
        delta = 1e-12
        for p, d in [(2, 2), (2.5, 2), (3, 2), (6, 2), (3, 3), (6, 3)]:
            for w in (0.05, 0.2, 0.9):
                oracle = delta ** gamma_exponent(p, d) * neck_integral(delta, w, 1.0, p, d)
                assert c_o_quadrature(p, d, 1.0) == pytest.approx(oracle, rel=1e-4), (p, d, w)

    def test_scale_law(self):
        # sqrt(R) in d = 2, R in d = 3
        assert c_o_quadrature(3, 2, 4.0) == pytest.approx(
            2.0 * c_o_quadrature(3, 2, 1.0), rel=1e-6
        )
        assert c_o_quadrature(3, 3, 4.0) == pytest.approx(
            4.0 * c_o_quadrature(3, 3, 1.0), rel=1e-6
        )

    def test_d3_oracle_value(self):
        for p in (3, 4, 6):
            assert c_o_quadrature(p, 3, 1.0) == pytest.approx(
                math.pi / (p - 2), rel=1e-4
            )

    def test_log_case_refused(self):
        with pytest.raises(LogCaseError):
            c_o_quadrature(2, 3, 1.0)

    @pytest.mark.parametrize("p", [2, 2.25, 2.5, 3, 3.5, 4, 5, 6, 8, 10, 14, 20])
    def test_accuracy_against_mpmath(self, p):
        # B(1/2, p - 3/2) at 50 digits; p is exact in binary, so the
        # reference has no rounding of its own
        with mpmath.workdps(50):
            exact = mpmath.beta(mpmath.mpf(1) / 2, mpmath.mpf(p) - mpmath.mpf(3) / 2)
            err = abs(mpmath.mpf(c_o_quadrature(p, 2, 1.0)) - exact)
            assert err <= 4 * math.ulp(float(exact)), (p, float(err / math.ulp(float(exact))))

    def test_p3_is_half_pi(self):
        assert abs(c_o_quadrature(3, 2, 1.0) - math.pi / 2) <= math.ulp(math.pi / 2)

    def test_gamma_overflow_names_p(self):
        assert math.isfinite(c_o_quadrature(172.5, 2, 1.0))
        with pytest.raises(ValueError, match="p=200"):
            c_o_quadrature(200, 2, 1.0)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteInput:
    @pytest.mark.parametrize("p", NON_FINITE)
    @pytest.mark.parametrize("call", [
        lambda p: gamma_exponent(p, 2),
        lambda p: c_o_table(p, 2, 1.0),
        lambda p: c_o_quadrature(p, 2, 1.0),
        lambda p: predict(p, 2, 1.0, 1.0, C_o=1.0),
        lambda p: table_consistency_report(p, 2, 1.0),
    ], ids=["gamma", "table", "limit", "predict-C_o", "report"])
    def test_p_named(self, call, p):
        with pytest.raises(ValueError, match=f"exponent p={p} must be finite"):
            call(p)

    @pytest.mark.parametrize("R", NON_FINITE)
    @pytest.mark.parametrize("call", [
        lambda R: c_o_table(3, 2, R),
        lambda R: c_o_quadrature(3, 2, R),
        lambda R: c_o_quadrature(3, 3, R),
        lambda R: predict(3, 2, R, 1.0, C_o=1.0),
        lambda R: predict(2, 3, R, 1.0, C_o=1.0),
        lambda R: table_consistency_report(2, 3, R),
    ], ids=["table", "limit-d2", "limit-d3", "predict-C_o", "predict-log", "report-log"])
    def test_R_named(self, call, R):
        with pytest.raises(ValueError, match=f"radius R={R} must be positive and finite"):
            call(R)

    @pytest.mark.parametrize("R0,C_o,named", [
        (math.nan, 1.0, "R0=nan"), (1.0, math.nan, "C_o=nan"),
        (1.0, 0.0, "C_o=0.0"), (1.0, -1.0, "C_o=-1.0"),
    ])
    def test_predict_R0_and_C_o_named(self, R0, C_o, named):
        with pytest.raises(ValueError, match=named):
            predict(3, 2, 1.0, R0, C_o=C_o)


class TestPredict:
    def test_degenerate_zero_load(self):
        pred = predict(3, 2, 1.0, 0.0, C_o=math.pi / 2)
        assert pred.gap_coefficient == 0.0

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            predict(3, 2, 1.0, -1.0, C_o=1.0)

    def test_delta_passed_fifth_refused(self):
        # C_o is keyword-only: a delta in its old fifth place is no C_o
        with pytest.raises(TypeError):
            predict(3, 2, 1.0, 1.0, 1e-3)

    def test_C_o_required(self):
        with pytest.raises(TypeError):
            predict(3, 2, 1.0, 1.0)

    def test_p2_blowup_exponent(self):
        pred = predict(2, 2, 1.0, 1.0, C_o=math.pi)
        assert pred.grad_exponent == pytest.approx(-0.5)
        assert pred.gap_coefficient == pytest.approx(1.0 / math.pi)

    def test_worked_example_p3(self):
        pred = predict(3, 2, 1.0, math.pi / 2, C_o=math.pi / 2)
        assert pred.gap_exponent == pytest.approx(0.75)
        assert pred.gap_coefficient * 1e-4**pred.gap_exponent == pytest.approx(1e-3)

    def test_gap_gradient_identity(self):
        # the two laws are one algebraic statement, grad_max ~ gap/delta,
        # so their exponents differ by exactly 1
        for p, d in [(2, 2), (3, 2), (4, 3)]:
            pred = predict(p, d, 1.0, 2.0, C_o=1.3)
            assert pred.grad_exponent == pred.gap_exponent - 1.0
            assert pred.gap_exponent == pred.gamma / (p - 1.0)

    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("C_o", [math.pi], ids=["C_o"])
    def test_log_case_refused(self, R, C_o):
        # J ~ pi R log(1/delta) at (p, d) = (2, 3): there is no power law to state
        with pytest.raises(LogCaseError):
            predict(2, 3, R, 1.0, C_o=C_o)


class TestTableConsistencyReport:
    def test_d2_consistent(self):
        rep = table_consistency_report(4, 2, 1.0)
        assert not rep.mismatch
        assert rep.ratio == pytest.approx(1.0, abs=1e-4)

    def test_d3_flags_mismatch(self):
        rep = table_consistency_report(3, 3, 2.0)
        assert rep.mismatch
        assert rep.limit_value == pytest.approx(2.0 * math.pi, rel=1e-4)
        assert rep.table_value == pytest.approx(math.pi, rel=1e-12)
        assert rep.ratio == pytest.approx(2.0, rel=1e-4)
        assert "2^(p-2)" in rep.note

    def test_log_pair_reported_not_asserted(self):
        rep = table_consistency_report(2, 3, 1.0)
        assert rep.mismatch
        assert rep.log_coefficient == pytest.approx(math.pi)
        assert rep.table_log_value == pytest.approx(0.0)

    def test_non_integer_quadrature_only(self):
        rep = table_consistency_report(2.5, 2, 1.0)
        assert rep.table_value is None
        assert not rep.mismatch
