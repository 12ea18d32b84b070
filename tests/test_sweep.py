import json
import math

import numpy as np
import pytest

from gaplaw import asymptotics
from gaplaw.flux import R0Estimate
from gaplaw.solver import SolverConfig
from gaplaw.sweep import (
    CSV_COLUMNS,
    SweepConfig,
    SweepRecord,
    emit_report,
    fit_power_law,
    r0_from_records,
    records_from_csv,
    records_to_csv,
    run_sweep,
    verify_theorem,
)

TINY = dict(delta_start=0.04, delta_ratio=0.5, delta_count=3, h_far=0.45)


@pytest.fixture(scope="module")
def tiny_records():
    return run_sweep(SweepConfig(p=2.0, **TINY))


def synthetic_records(A, s, deltas=(0.04, 0.02, 0.01, 0.005)):
    recs = []
    for d in deltas:
        recs.append(
            SweepRecord(
                delta=d, T1=-0.5 * A * d**s, T2=0.5 * A * d**s, gap=A * d**s,
                gradmax_all=A * d ** (s - 1.0), gradmax_neck=A * d ** (s - 1.0),
                gradmax_away=1.0, r_delta=2.0, flux_defect=0.0, energy=1.0,
                newton_iters=1, wall_ms=0.0,
            )
        )
    return recs


class TestSweepConfig:
    def test_json_round_trip(self):
        cfg = SweepConfig(p=3.0, datum="quadratic", delta_count=4)
        again = SweepConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_ladder(self):
        cfg = SweepConfig(delta_start=0.04, delta_ratio=0.5, delta_count=3)
        assert cfg.deltas == (0.04, 0.02, 0.01)

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(delta_ratio=1.5)
        with pytest.raises(ValueError):
            SweepConfig(h_neck_fraction=0.5)

    def test_datum_presets(self):
        lin = SweepConfig(datum="linear-y").datum_callable()
        assert lin(0.3, -1.2) == -1.2
        quad = SweepConfig(datum="quadratic").datum_callable()
        assert quad(0.0, 2.0) == pytest.approx(2.0 + 0.5 * 4.0 / 4.0)
        table = SweepConfig(
            datum={"kind": "table", "entries": [[0.0, 1.0], [math.pi, -1.0]]}
        ).datum_callable()
        assert table(4.0, 0.0) == pytest.approx(1.0)
        assert table(-4.0, 0.0) == pytest.approx(-1.0)
        assert table(0.0, 4.0) == pytest.approx(0.0, abs=1e-12)

    def test_unknown_datum(self):
        with pytest.raises(ValueError):
            SweepConfig(datum="mystery").datum_callable()

    def test_table_datum_on_arrays(self):
        # unsorted entries, one of them given at a negative angle
        entries = [[4.0, 2.0], [1.0, 0.0], [-1.0, 3.0], [2.5, -1.0]]
        table = SweepConfig(datum={"kind": "table", "entries": entries}).datum_callable()
        pts = sorted((t % (2 * math.pi), v) for t, v in entries)
        ths, vals = [t for t, _ in pts], [v for _, v in pts]

        def reference(x, y):
            th = math.atan2(y, x) % (2 * math.pi)
            return float(np.interp(th, ths, vals, period=2 * math.pi))

        theta = np.linspace(-math.pi, 3 * math.pi, 97)
        x, y = 4.0 * np.cos(theta), 4.0 * np.sin(theta)
        got = table(x, y)
        assert got.shape == x.shape
        ref = [reference(a, b) for a, b in zip(x, y)]
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12)
        # wrap-around: theta = 0 lies between the entries at 2 pi - 1 and
        # 1, and the interpolant is continuous across it
        eps = 1e-9
        below = table(math.cos(-eps), math.sin(-eps))
        above = table(math.cos(eps), math.sin(eps))
        assert below == pytest.approx(above, abs=1e-8)
        assert table(math.cos(-1.0), math.sin(-1.0)) == pytest.approx(3.0, abs=1e-12)
        assert table(1.0, 0.0) == pytest.approx(reference(1.0, 0.0), abs=1e-15)


class TestSweepConfigValidation:
    """Bad configs are rejected before any mesh is built."""

    @pytest.fixture(autouse=True)
    def no_meshing(self, monkeypatch):
        def build_mesh(*args, **kwargs):
            raise AssertionError("build_mesh called for an invalid config")

        monkeypatch.setattr("gaplaw.sweep.build_mesh", build_mesh)

    @pytest.mark.parametrize("kwargs,field", [
        ({"datum": "bogus"}, "datum"),
        ({"datum": {"kind": "spline"}}, "datum"),
        ({"datum": {"kind": "table"}}, "datum"),
        ({"datum": {"kind": "table", "entries": []}}, "datum"),
        ({"h_far": -1.0}, "h_far"),
        ({"h_far": 0.0}, "h_far"),
        ({"R_out": 2.5}, "R_out"),
        ({"R_out": 2.0}, "R_out"),
        ({"delta_start": 0.9, "R_out": 3.4}, "R_out"),
        # no continuation ladder with a step <= 0 (or NaN) reaches p
        ({"p_step": 0.0, "p": 3.0}, "p_step"),
        ({"p_step": -0.5, "p": 3.0}, "p_step"),
        ({"p_step": float("nan")}, "p_step"),
        # the neck cell size must be a positive fraction of delta
        ({"h_neck_fraction": 0.0}, "h_neck_fraction"),
        ({"h_neck_fraction": -0.1}, "h_neck_fraction"),
        # values every ladder point would fail on, deep inside the mesher or solver
        ({"neck_w": 0.0}, "neck_w"),
        ({"neck_w": -0.25}, "neck_w"),
        ({"neck_w": 1.0}, "neck_w"),
        ({"neck_w": float("nan")}, "neck_w"),
        ({"delta_start": 0.0}, "delta_start"),
        ({"delta_start": -0.04}, "delta_start"),
        ({"delta_start": float("nan")}, "delta_start"),
        pytest.param({"p": 1.5}, r"^p\b", id="p-below-2"),
        pytest.param({"p": float("nan")}, r"^p\b", id="p-nan"),
        # solver values every solve would fail on, forwarded to SolverConfig
        ({"max_iter": 0}, "max_iter"),
        ({"max_iter": -3}, "max_iter"),
        ({"max_iter": 2.5}, "max_iter"),
        ({"newton_tol": -1.0}, "newton_tol"),
        ({"newton_tol": float("nan")}, "newton_tol"),
        ({"newton_tol": 0.0}, "newton_tol"),
        ({"newton_tol": 1.0}, "newton_tol"),
        ({"eps_scale": -1.0}, "eps_scale"),
        ({"eps_scale": float("nan")}, "eps_scale"),
        ({"delta_count": 2.5}, "delta_count"),
        ({"delta_count": 0}, "delta_count"),
        ({"delta_count": -1}, "delta_count"),
        # the particle radius is named before the R_out clearance is checked
        pytest.param({"R": -1.0}, r"^R\b", id="R-negative"),
        pytest.param({"R": 0.0}, r"^R\b", id="R-zero"),
        pytest.param({"R": float("nan")}, r"^R\b", id="R-nan"),
    ])
    def test_rejected_at_construction(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            SweepConfig(**kwargs)
        with pytest.raises(ValueError, match=field):
            SweepConfig.from_dict({**SweepConfig().to_dict(), **kwargs})

    @pytest.mark.parametrize("p_step", [0.0, -0.5, float("nan")])
    def test_solver_config_rejects_nonpositive_p_step(self, p_step):
        with pytest.raises(ValueError, match="p_step"):
            SolverConfig(p_step=p_step)

    @pytest.mark.parametrize("kwargs,field", [
        ({"max_iter": 0}, "max_iter"),
        ({"max_iter": -1}, "max_iter"),
        ({"max_iter": 2.5}, "max_iter"),
        ({"newton_tol": -1.0}, "newton_tol"),
        ({"newton_tol": float("nan")}, "newton_tol"),
        ({"newton_tol": 0.0}, "newton_tol"),
        ({"eps_scale": -1.0}, "eps_scale"),
        ({"eps_scale": float("nan")}, "eps_scale"),
    ])
    def test_solver_config_rejects_unsolvable_values(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**kwargs)

    def test_solver_config_accepts_boundary_values(self):
        SolverConfig(max_iter=1, eps_scale=0.0, newton_tol=1e-15)
        SweepConfig(delta_count=1, max_iter=1, eps_scale=0.0)

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="R_outer"):
            SweepConfig.from_dict({"p": 3.0, "R_outer": 4.0})
        with pytest.raises(ValueError, match="out_dir"):
            SweepConfig.from_json('{"out_dir": "results"}')
        # the mesher draws no random numbers, so a mesh seed is no option
        with pytest.raises(ValueError, match="mesh_seed"):
            SweepConfig.from_dict({**SweepConfig().to_dict(), "mesh_seed": 0})

    def test_clearance_checked_at_the_widest_gap(self):
        # margin R_out - (2R + delta/2): 0.995 at delta_start = 0.04, but
        # above the clearance 1 from delta = 0.02 down the ladder
        with pytest.raises(ValueError, match="R_out"):
            SweepConfig(R_out=3.015)
        SweepConfig(R_out=3.015, delta_start=0.02)


class TestRunSweep:
    def test_constant_datum_degenerate(self):
        cfg = SweepConfig(p=2.0, datum={"kind": "table", "entries": [[0.0, 1.0]]},
                          **TINY)
        recs = run_sweep(cfg)
        for r in recs:
            assert r.error is None
            assert abs(r.gap) <= 1e-10
            assert r.gradmax_all <= 1e-9
            assert abs(r.r_delta) <= 1e-10

    def test_canonical_monotonicity(self, tiny_records):
        gaps = [r.gap for r in tiny_records]
        gms = [r.gradmax_all for r in tiny_records]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert all(b > a for a, b in zip(gms, gms[1:]))

    def test_flux_defects_small(self, tiny_records):
        for r in tiny_records:
            assert r.flux_defect <= 1e-10

    def test_q_reports_attached_p2(self, tiny_records):
        for r in tiny_records:
            assert r.q_report is not None
            assert np.sign(r.q_report.Q) == np.sign(r.q_report.R_delta)
            assert r.q_report.identity_defect <= 1e-6 * abs(r.q_report.Q)

    def test_determinism(self, tiny_records):
        again = run_sweep(SweepConfig(p=2.0, **TINY))
        for a, b in zip(tiny_records, again):
            assert a.gap == b.gap
            assert a.gradmax_all == b.gradmax_all
            assert a.r_delta == b.r_delta
            assert a.energy == b.energy

    def test_quadratic_datum_nondegenerate(self):
        recs = run_sweep(SweepConfig(p=2.0, datum="quadratic", **TINY))
        assert all(r.error is None for r in recs)
        assert all(r.gap > 0 for r in recs)
        assert r0_from_records(recs).R0 > 0

    def test_refinement_moves_slopes_toward_prediction(self):
        # halving the far-field mesh size moves each fitted slope toward
        # its predicted value (or leaves it within a hair of it)
        pred = asymptotics.predict(2.0, 2, 1.0, 1.0, 0.01,
                                   C_o=asymptotics.c_o_table(2, 2, 1.0))
        devs = {}
        for h in (0.6, 0.3):
            recs = run_sweep(SweepConfig(p=2.0, delta_start=0.04, delta_ratio=0.5,
                                         delta_count=3, h_far=h))
            devs[h] = {
                q: abs(fit_power_law(recs, q, pred).slope_deviation)
                for q in ("gap", "gradMax")
            }
        for q in ("gap", "gradMax"):
            assert devs[0.3][q] <= devs[0.6][q] + 0.02


class TestFitPowerLaw:
    def test_exact_recovery(self):
        recs = synthetic_records(A=3.0, s=0.5)
        fit = fit_power_law(recs, "gap")
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
        assert fit.residual <= 1e-12

    def test_gradmax_slope(self):
        recs = synthetic_records(A=2.0, s=0.75)
        fit = fit_power_law(recs, "gradMax")
        assert fit.slope == pytest.approx(-0.25, abs=1e-12)

    def test_prediction_attachment(self):
        recs = synthetic_records(A=1.0, s=0.75)
        pred = asymptotics.predict(3.0, 2, 1.0, math.pi / 2, 0.005, C_o=math.pi / 2)
        fit = fit_power_law(recs, "gap", pred)
        assert fit.predicted_slope == pytest.approx(0.75)
        assert fit.slope_deviation == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_rejected(self):
        recs = synthetic_records(A=1.0, s=0.5)
        recs[1].gap = 0.0
        with pytest.raises(ValueError) as err:
            fit_power_law(recs, "gap")
        assert "0.02" in str(err.value)

    def test_too_few_points(self):
        recs = synthetic_records(A=1.0, s=0.5, deltas=(0.04, 0.02))
        with pytest.raises(ValueError):
            fit_power_law(recs, "gap")


class TestVerifyTheorem:
    def _prediction(self, p=2.0, R0=2.0):
        C_o = asymptotics.c_o_table(int(p), 2, 1.0)
        return asymptotics.predict(p, 2, 1.0, R0, 0.005, C_o=C_o)

    def test_manufactured_records_ratio_one(self):
        # records generated exactly from the prediction have ratio 1
        p, R0 = 2.0, 2.0
        pred = self._prediction(p, R0)
        A = (R0 / pred.C_o) ** (1.0 / (p - 1.0))
        recs = synthetic_records(A=A, s=pred.gap_exponent)
        r0 = R0Estimate(ladder=((0.04, R0),), R0=R0, slope=0.0, residual=0.0,
                        max_fit_residual=0.0)
        verdict = verify_theorem(recs, r0, pred)
        assert all(abs(r - 1.0) <= 1e-10 for r in verdict.ratios)
        assert verdict.passed

    def test_out_of_band_fails(self):
        p, R0 = 2.0, 2.0
        pred = self._prediction(p, R0)
        A = 2.0 * (R0 / pred.C_o) ** (1.0 / (p - 1.0))  # gap off by 2x
        recs = synthetic_records(A=A, s=pred.gap_exponent)
        r0 = R0Estimate(ladder=(), R0=R0, slope=0.0, residual=0.0, max_fit_residual=0.0)
        verdict = verify_theorem(recs, r0, pred)
        assert not verdict.passed

    def test_negative_r0_directs_swap(self):
        pred = self._prediction()
        recs = synthetic_records(A=1.0, s=0.5)
        r0 = R0Estimate(ladder=(), R0=-1.0, slope=0.0, residual=0.0, max_fit_residual=0.0)
        with pytest.raises(ValueError, match="swap"):
            verify_theorem(recs, r0, pred)


class TestPersistence:
    def test_csv_round_trip(self, tiny_records):
        text = records_to_csv(tiny_records)
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        back = records_from_csv(text)
        assert len(back) == len(tiny_records)
        for a, b in zip(sorted(tiny_records, key=lambda r: -r.delta), back):
            assert a.gap == b.gap
            assert a.r_delta == b.r_delta
            assert a.newton_iters == b.newton_iters

    def test_csv_round_trip_exact(self):
        records = [
            SweepRecord(delta=0.04, T1=-0.125, T2=0.1 + 0.2, gap=1e-300, gradmax_all=3.5,
                        gradmax_neck=2.0, gradmax_away=math.inf, r_delta=0.75,
                        flux_defect=math.nan, energy=-1.5, newton_iters=7, wall_ms=12.25),
            SweepRecord(delta=0.01, newton_iters=0),
        ]
        text = records_to_csv(records)
        back = records_from_csv(text)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            for name in CSV_COLUMNS:
                va, vb = getattr(a, name), getattr(b, name)
                assert type(va) is type(vb), name
                assert va == vb or (math.isnan(va) and math.isnan(vb)), name
        assert records[0].csv_row().split(",")[CSV_COLUMNS.index("newton_iters")] == "7"
        assert records_to_csv(back) == text

    def test_short_row_rejected(self):
        with pytest.raises(ValueError, match="fields"):
            records_from_csv(",".join(CSV_COLUMNS) + "\n0.04,1.0\n")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            records_from_csv("a,b,c\n1,2,3\n")

    def test_emit_report_files(self, tiny_records, tmp_path):
        cfg = SweepConfig(p=2.0, **TINY)
        r0 = r0_from_records(tiny_records)
        pred = asymptotics.predict(2.0, 2, 1.0, r0.R0, 0.01,
                                   C_o=asymptotics.c_o_table(2, 2, 1.0))
        fits = {
            "gap": fit_power_law(tiny_records, "gap", pred),
            "gradMax": fit_power_law(tiny_records, "gradMax", pred),
        }
        verdicts = {"theorem_ratio": verify_theorem(tiny_records, r0, pred)}
        emit_report(tiny_records, fits, verdicts, tmp_path, config=cfg, r0=r0,
                    prediction=pred)
        assert (tmp_path / "sweep.csv").exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fits"]["gap"]["slope"] == fits["gap"].slope
        assert report["verdicts"]["theorem_ratio"]["passed"] is True
        assert report["r0"]["R0"] == r0.R0
        gp = (tmp_path / "plots.gp").read_text()
        assert "sweep.csv" in gp and "logscale" in gp
        assert (tmp_path / "plots.py").exists()
        # CSV rows = ladder length
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(tiny_records)
        # one flux row per curve per solve: 5 curves x 2 solves per delta
        flux_lines = (tmp_path / "fluxes.csv").read_text().strip().splitlines()
        assert flux_lines[0] == "delta,kind,curve,flux"
        assert len(flux_lines) == 1 + 10 * len(tiny_records)

    def test_report_json_round_trips_fits_exactly(self, tiny_records, tmp_path):
        fits = {"gap": fit_power_law(tiny_records, "gap")}
        emit_report(tiny_records, fits, {}, tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fits"]["gap"]["slope"] == fits["gap"].slope
        assert report["fits"]["gap"]["prefactor"] == fits["gap"].prefactor

    def test_empty_records(self, tmp_path):
        emit_report([], {}, {}, tmp_path)
        text = (tmp_path / "sweep.csv").read_text()
        assert text == ",".join(CSV_COLUMNS) + "\n"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fits"] == {}

    def test_csv_bytes_deterministic_outside_timing(self, tiny_records, tmp_path):
        again = run_sweep(SweepConfig(p=2.0, **TINY))

        def strip_wall(text):
            return "\n".join(",".join(ln.split(",")[:-1]) for ln in text.splitlines())

        a = records_to_csv(tiny_records)
        b = records_to_csv(again)
        assert strip_wall(a) == strip_wall(b)
