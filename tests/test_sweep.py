import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import gaplaw.sweep as sweep
from gaplaw import asymptotics
from gaplaw.flux import R0Estimate, q_functional, r_delta
from gaplaw.geometry import GeometryError, NeckSpec, ParticlePair
from gaplaw.mesh import build_mesh
from gaplaw.solver import SolverConfig, solve_floating, solve_linear_aux, solve_tied
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
    verify_barrier,
    verify_theorem,
)

TINY = dict(delta_start=0.04, delta_count=3, h_far=0.45)


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
        cfg = SweepConfig(delta_start=0.04, delta_count=3)
        assert cfg.deltas == (0.04, 0.02, 0.01)

    def test_ladder_validation(self):
        # the ladder halves (DELTA_RATIO); its ratio is no config key
        with pytest.raises(ValueError, match="delta_ratio"):
            SweepConfig.from_dict({"delta_ratio": 0.5})
        with pytest.raises(ValueError):
            SweepConfig(neck_layers=3)

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

    def test_readme_example_is_the_default_config(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        assert set(block) == {f.name for f in dataclasses.fields(SweepConfig)}
        assert SweepConfig.from_dict(block) == SweepConfig()

    def test_no_field_shared_with_the_solver_config(self):
        # the Newton settings are constants of gaplaw.solver, set by no config
        assert dataclasses.fields(SolverConfig) == ()

    @pytest.mark.parametrize("cfg", [
        SweepConfig(),
        SweepConfig(p=3.0, datum="quadratic"),
        SweepConfig(datum={"kind": "table", "entries": [[0.0, 1.0], [math.pi, -1.0]]}),
    ], ids=["default", "quadratic", "table"])
    def test_report_config_rebuilds_the_config(self, cfg, tmp_path):
        emit_report([], {}, {}, tmp_path, config=cfg)
        report = json.loads((tmp_path / "report.json").read_text())
        assert SweepConfig.from_dict(report["config"]) == cfg

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


FORMER_KEYS = {"clearance", "delta_ratio", "eps_scale", "h_neck_fraction", "max_iter",
               "newton_tol", "p_step"}


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
        # former keys, refused by name whatever their value: the Newton
        # settings are constants of gaplaw.solver, the clearance is
        # CLEARANCE and the neck resolution is given as neck_layers
        ({"p_step": 0.0, "p": 3.0}, "p_step"),
        ({"p_step": -0.5, "p": 3.0}, "p_step"),
        ({"p_step": float("nan")}, "p_step"),
        ({"h_neck_fraction": 0.0}, "h_neck_fraction"),
        ({"h_neck_fraction": -0.1}, "h_neck_fraction"),
        # values every ladder point would fail on, deep inside the mesher or solver
        ({"R_out": float("nan")}, "R_out"),
        ({"R_out": float("inf")}, "R_out"),
        # former keys again
        ({"clearance": float("nan")}, "clearance"),
        ({"clearance": -1.0}, "clearance"),
        ({"delta_start": 0.0}, "delta_start"),
        ({"delta_start": -0.04}, "delta_start"),
        ({"delta_start": float("nan")}, "delta_start"),
        pytest.param({"p": 1.5}, r"^p\b", id="p-below-2"),
        pytest.param({"p": float("nan")}, r"^p\b", id="p-nan"),
        # former keys again
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
        # an infinite exponent would make the continuation ladder endless;
        # a bool is an Integral but no count (eps_scale and max_iter: former keys)
        pytest.param({"p": float("inf")}, r"^p\b", id="p-inf"),
        pytest.param({"eps_scale": float("inf")}, "eps_scale", id="eps_scale-inf"),
        pytest.param({"max_iter": True}, "max_iter", id="max_iter-bool"),
        pytest.param({"delta_count": True}, "delta_count", id="delta_count-bool"),
        pytest.param({"R": float("inf")}, r"^R\b", id="R-inf"),
        pytest.param({"h_far": float("nan")}, "h_far", id="h_far-nan"),
        pytest.param({"h_far": float("inf")}, "h_far", id="h_far-inf"),
        # a non-finite table entry made every ladder point fail in the solver
        *(pytest.param({"datum": {"kind": "table", "entries": [[0.0, 1.0], entry]}},
                       "datum table entry 1", id=f"table-{column}-{bad}")
          for bad in ("nan", "inf", "-inf")
          for column, entry in (("angle", [float(bad), 1.0]), ("value", [3.0, float(bad)]))),
        # an underflowing ladder: (5e-324, 0.0, 0.0) and 2^-1023, a subnormal
        pytest.param({"delta_start": 5e-324, "delta_count": 3}, "delta_start=.* delta_count=3",
                     id="ladder-underflow"),
        pytest.param({"delta_start": 2.0**-5, "delta_count": 1019},
                     "delta_start=.* delta_count=1019", id="ladder-subnormal"),
        # a wrong-typed value is named before any comparison fails on it;
        # JSON's true is a bool, no length
        pytest.param({"p": "3"}, r"^p\b", id="p-str"),
        pytest.param({"p": True}, r"^p\b", id="p-bool"),
        pytest.param({"R": True}, r"^R\b", id="R-bool"),
        pytest.param({"R_out": "4"}, "R_out", id="R_out-str"),
        pytest.param({"R_out": True}, "R_out", id="R_out-bool"),
        pytest.param({"delta_start": None}, "delta_start", id="delta_start-none"),
        pytest.param({"delta_start": True}, "delta_start", id="delta_start-bool"),
        pytest.param({"delta_ratio": None}, "delta_ratio", id="delta_ratio-none"),  # former key
        pytest.param({"h_far": True}, "h_far", id="h_far-bool"),
        pytest.param({"h_neck_fraction": "0.25"}, "h_neck_fraction", id="h_neck_fraction-str"),
        # a table entry that is no [theta, value] pair of numbers
        pytest.param({"datum": {"kind": "table", "entries": [[0]]}}, "datum table entry 0",
                     id="table-entry-short"),
        pytest.param({"datum": {"kind": "table", "entries": [[0.0, 1.0], [1.0, 2.0, 3.0]]}},
                     "datum table entry 1", id="table-entry-long"),
        pytest.param({"datum": {"kind": "table", "entries": [[0.0, "1"]]}},
                     "datum table entry 0", id="table-entry-str"),
        pytest.param({"datum": {"kind": "table", "entries": [[True, 1.0]]}},
                     "datum table entry 0", id="table-entry-bool"),
        # entries that are no list, and an integer beyond the float range
        pytest.param({"datum": {"kind": "table", "entries": 5}}, "datum table entries",
                     id="table-entries-int"),
        # a key the table datum does not read, which was silently ignored
        pytest.param({"datum": {"kind": "table", "entries": [[0, 1.0], [3.0, -1.0]],
                                "interp": "cubic"}}, "interp", id="table-unknown-key"),
        pytest.param({"datum": {"kind": "table", "entries": [[0, 10**400]]}},
                     "datum table entry 0", id="table-entry-huge-int"),
        # the former key h_neck_fraction again, at values that once overflowed
        pytest.param({"h_neck_fraction": 5e-324}, "h_neck_fraction",
                     id="h_neck_fraction-5e-324"),
        pytest.param({"h_neck_fraction": 1e-310}, "h_neck_fraction",
                     id="h_neck_fraction-1e-310"),
        # the layers across the gap: an even integer >= 4, checked by MeshParams
        *(pytest.param({"neck_layers": bad}, "neck_layers", id=f"neck_layers-{bad!r}")
          for bad in (0, 2, 5, -4, 4.0, "4", True, None)),
    ])
    def test_rejected_at_construction(self, kwargs, field):
        # the dataclass constructor refuses a former key with a TypeError
        error = TypeError if kwargs.keys() & FORMER_KEYS else ValueError
        with pytest.raises(error, match=field):
            SweepConfig(**kwargs)
        with pytest.raises(ValueError, match=field):
            SweepConfig.from_dict({**SweepConfig().to_dict(), **kwargs})

    # SolverConfig has no fields: a former Newton setting is refused by
    # name whatever its value, as a former SweepConfig key is
    @pytest.mark.parametrize("p_step", [0.0, -0.5, float("nan")])
    def test_solver_config_rejects_nonpositive_p_step(self, p_step):
        with pytest.raises(TypeError, match="p_step"):
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
        pytest.param({"eps_scale": float("inf")}, "eps_scale", id="eps_scale-inf"),
        pytest.param({"max_iter": True}, "max_iter", id="max_iter-bool"),
        pytest.param({"max_iter": -3}, "max_iter", id="max_iter-negative"),
        pytest.param({"newton_tol": 1.0}, "newton_tol", id="newton_tol-one"),
        # a wrong-typed value is named before any comparison fails on it
        pytest.param({"newton_tol": "x"}, "newton_tol", id="newton_tol-str"),
        pytest.param({"eps_scale": None}, "eps_scale", id="eps_scale-none"),
        pytest.param({"p_step": True}, "p_step", id="p_step-bool"),
        pytest.param({"p_step": "1"}, "p_step", id="p_step-str"),
    ])
    def test_solver_config_rejects_unsolvable_values(self, kwargs, field):
        with pytest.raises(TypeError, match=field):
            SolverConfig(**kwargs)

    def test_solver_config_accepts_boundary_values(self):
        SolverConfig()
        SweepConfig(delta_count=1, neck_layers=4)

    def test_smallest_normal_delta_accepted(self):
        # 2^-5 * 0.5^1017 = 2^-1022, the smallest normal float
        cfg = SweepConfig(delta_start=2.0**-5, delta_count=1018)
        assert cfg.deltas[-1] == sys.float_info.min

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="R_outer"):
            SweepConfig.from_dict({"p": 3.0, "R_outer": 4.0})
        with pytest.raises(ValueError, match="out_dir"):
            SweepConfig.from_json('{"out_dir": "results"}')
        # the mesher draws no random numbers, so a mesh seed is no option;
        # the verdict tolerances, the neck width, the strip aspect, the
        # clearance and the Newton settings are module constants, and the
        # neck resolution is given in layers
        for key, value in [("mesh_seed", 0), ("ratio_band", [0.995, 1.005]),
                           ("slope_tol", 0.1), ("deviation_slack", 0.02),
                           ("neck_w", None), ("strip_aspect", 1.4), ("clearance", 1.0),
                           ("newton_tol", 1e-12), ("max_iter", 80), ("eps_scale", 1e-8),
                           ("p_step", 1.0), ("h_neck_fraction", 0.25)]:
            with pytest.raises(ValueError, match=key):
                SweepConfig.from_dict({**SweepConfig().to_dict(), key: value})

    @pytest.mark.parametrize("text,kind", [("null", "NoneType"), ('"p"', "str"),
                                           ("[1, 2]", "list"), ("3", "int")])
    def test_config_must_be_an_object(self, text, kind):
        with pytest.raises(ValueError, match=f"must be a JSON object, got {kind}"):
            SweepConfig.from_json(text)

    def test_domain_enforces_clearance(self):
        # margin R_out - (2R + delta/2) = 0.75 at delta = 2.5, below CLEARANCE
        cfg = SweepConfig()
        with pytest.raises(GeometryError,
                           match="outer-boundary clearance 0.75 below required 1$"):
            cfg.domain(2.5)
        assert cfg.domain(2.0).boundary_margin == sweep.CLEARANCE

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

    def test_large_p_ladder_loses_no_delta(self):
        # on the delta = 1.25e-3 mesh the tied solve at p >= 10 meets a CG
        # step, preconditioned by a stale factor, along which no halving
        # lowers the energy beyond its rounding; Newton then factors afresh
        recs = run_sweep(SweepConfig(p=14.0, delta_count=8))
        assert [r.error for r in recs] == [None] * 8

    def test_every_delta_failing_keeps_its_record(self, monkeypatch):
        def build_mesh(*args, **kwargs):
            raise RuntimeError("no mesh")

        monkeypatch.setattr("gaplaw.sweep.build_mesh", build_mesh)
        cfg = SweepConfig(p=2.0, **TINY)
        recs = run_sweep(cfg)
        assert [r.delta for r in recs] == list(cfg.deltas)
        assert all(r.error == "RuntimeError: no mesh" for r in recs), recs

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

    @pytest.mark.parametrize("datum,parity", [("linear-y", -1), ("quadratic", None)])
    def test_q_report_matches_independent_auxiliaries(self, datum, parity, monkeypatch):
        # the sweep derives v2 as v1's mirror image and, under the odd datum,
        # v3 as the tied solve; three independent solves must give the same
        # Q.  `parity` is the tied solve's under y -> -y; both data are even
        # in x
        cfg = SweepConfig(p=2.0, datum=datum, **TINY)
        calls = []

        def counted(mesh, which, **kwargs):
            calls.append(which)
            return solve_linear_aux(mesh, which, **kwargs)

        monkeypatch.setattr(sweep, "solve_linear_aux", counted)
        records = run_sweep(cfg)
        assert calls == (["v1"] if parity == -1 else ["v1", "v3"]) * len(cfg.deltas)
        scfg = cfg.solver_config()
        for rec in records:
            assert rec.error is None
            # the record's tied solve again, on the same deterministic mesh
            mesh = build_mesh(cfg.domain(rec.delta), cfg.mesh_params())
            tsol = solve_tied(mesh, p=2.0, config=scfg)
            assert r_delta(tsol) == rec.r_delta
            assert tsol.parity == (parity, 1)
            want = q_functional(*(solve_linear_aux(mesh, which, config=scfg)
                                  for which in ("v1", "v2", "v3")))
            got = rec.q_report
            for a, b in [(got.Q, want.Q), (got.R_delta, want.R_delta),
                         *zip(got.b, want.b), *zip(sum(got.a, ()), sum(want.a, ()))]:
                assert a == pytest.approx(b, rel=1e-12, abs=0.0)
            # T_tied vanishes under the odd datum: measured against the
            # datum amplitude, the bound of every potential
            amp = np.max(np.abs(tsol.u))
            assert got.T_tied == pytest.approx(want.T_tied, rel=1e-12, abs=1e-12 * amp)

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
        pred = asymptotics.predict(2.0, 2, 1.0, 1.0, C_o=asymptotics.c_o_table(2, 2, 1.0))
        devs = {}
        for h in (0.6, 0.3):
            recs = run_sweep(SweepConfig(p=2.0, delta_start=0.04, delta_count=3, h_far=h))
            devs[h] = {
                q: abs(fit_power_law(recs, q, pred).slope_deviation)
                for q in ("gap", "gradMax")
            }
        for q in ("gap", "gradMax"):
            assert devs[0.3][q] <= devs[0.6][q] + 0.02


PRED_P3 = asymptotics.predict(3.0, 2, 1.0, math.pi / 2, C_o=math.pi / 2)  # gap slope 0.75


class TestFitPowerLaw:
    def test_exact_recovery(self):
        recs = synthetic_records(A=3.0, s=0.5)
        fit = fit_power_law(recs, "gap", PRED_P3)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
        assert fit.residual <= 1e-12

    def test_gradmax_slope(self):
        recs = synthetic_records(A=2.0, s=0.75)
        fit = fit_power_law(recs, "gradMax", PRED_P3)
        assert fit.slope == pytest.approx(-0.25, abs=1e-12)
        assert fit.predicted_slope == pytest.approx(-0.25)
        assert fit.slope_deviation == pytest.approx(0.0, abs=1e-12)

    def test_prediction_attachment(self):
        recs = synthetic_records(A=1.0, s=0.75)
        fit = fit_power_law(recs, "gap", PRED_P3)
        assert fit.predicted_slope == pytest.approx(0.75)
        assert fit.slope_deviation == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_rejected(self):
        recs = synthetic_records(A=1.0, s=0.5)
        recs[1].gap = 0.0
        with pytest.raises(ValueError) as err:
            fit_power_law(recs, "gap", PRED_P3)
        assert "0.02" in str(err.value)

    def test_too_few_points(self):
        recs = synthetic_records(A=1.0, s=0.5, deltas=(0.04, 0.02))
        with pytest.raises(ValueError):
            fit_power_law(recs, "gap", PRED_P3)


class TestVerifyTheorem:
    def _prediction(self, p=2.0, R0=2.0):
        C_o = asymptotics.c_o_table(int(p), 2, 1.0)
        return asymptotics.predict(p, 2, 1.0, R0, C_o=C_o)

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


class TestVerifyBarrier:
    @pytest.fixture(scope="class")
    def solved(self):
        cfg = SweepConfig(p=2.0, **TINY)
        dom = cfg.domain(cfg.delta_start)
        sol = solve_floating(build_mesh(dom, cfg.mesh_params()), p=2.0,
                             config=cfg.solver_config())
        return sol, NeckSpec(dom.pair, cfg.w)

    def test_rejects_another_p(self, solved):
        sol, neck = solved
        assert verify_barrier(sol, neck, p=2.0).n_samples > 0
        with pytest.raises(ValueError, match="p=3.0"):
            verify_barrier(sol, neck, p=3.0)

    @pytest.mark.parametrize("side, factor", [("lower", 1.0), ("lower", 1.0 + 1e-6),
                                              ("upper", 1.0), ("upper", 1.0 - 1e-6)])
    def test_a_sample_is_inside_exactly_between_its_bounds(self, solved, monkeypatch,
                                                           side, factor):
        # one sample's bound moved onto its measured value, or just past it:
        # on the bound it counts, past it by a relative 1e-6 it does not
        sol, neck = solved
        xs, measured = sweep.sample_neck_flux(sol, neck)
        k = len(xs) // 2
        bound = sweep.barrier_flux_bound

        def moved(*args):
            lower, upper = bound(*args)
            (lower if side == "lower" else upper)[k] = measured[k] * factor
            return lower, upper

        monkeypatch.setattr(sweep, "barrier_flux_bound", moved)
        bv = verify_barrier(sol, neck, p=2.0)
        assert bv.n_samples == len(xs)
        assert bv.n_inside == bv.n_samples - (factor != 1.0)

    def test_rejects_a_neck_of_another_gap(self, solved):
        sol, neck = solved
        other = ParticlePair(R=neck.pair.R, delta=neck.pair.delta / 4.0)
        with pytest.raises(ValueError) as err:
            verify_barrier(sol, NeckSpec(other, neck.w), p=2.0)
        assert repr(other) in str(err.value) and repr(neck.pair) in str(err.value)


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
        # the extremes of the finite floats; a non-finite value is refused
        # on reading (test_bad_value_named)
        records = [
            SweepRecord(delta=0.04, T1=-0.125, T2=0.1 + 0.2, gap=1e-300, gradmax_all=3.5,
                        gradmax_neck=2.0, gradmax_away=sys.float_info.max, r_delta=0.75,
                        flux_defect=5e-324, energy=-1.5, newton_iters=7, wall_ms=12.25),
            SweepRecord(delta=0.01, newton_iters=0,
                        **{name: -0.0 for name in CSV_COLUMNS[1:-2]}),
        ]
        text = records_to_csv(records)
        back = records_from_csv(text)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            for name in CSV_COLUMNS:
                va, vb = getattr(a, name), getattr(b, name)
                assert type(va) is type(vb), name
                assert va == vb and math.copysign(1, va) == math.copysign(1, vb), name
        assert records[0].csv_row().split(",")[CSV_COLUMNS.index("newton_iters")] == "7"
        assert records_to_csv(back) == text

    def test_short_row_rejected(self):
        with pytest.raises(ValueError, match="fields"):
            records_from_csv(",".join(CSV_COLUMNS) + "\n0.04,1.0\n")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            records_from_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("column,value,problem", [
        ("r_delta", "nan", "is not finite"), ("gap", "inf", "is not finite"),
        ("delta", "-inf", "is not finite"), ("delta", "0.0", "is not positive"),
        ("delta", "-0.0025", "is not positive"), ("T1", "1.0.0", "does not parse"),
        ("newton_iters", "7.5", "does not parse"), ("wall_ms", "", "does not parse"),
    ])
    def test_bad_value_named(self, column, value, problem):
        rec = SweepRecord(delta=0.01, T1=-0.5, T2=0.5, gap=1.0, gradmax_all=3.0,
                          gradmax_neck=3.0, gradmax_away=1.0, r_delta=6.0,
                          flux_defect=0.0, energy=1.0, newton_iters=7, wall_ms=1.0)
        lines = records_to_csv([rec]).splitlines()
        parts = lines[1].split(",")
        parts[CSV_COLUMNS.index(column)] = value
        text = "\n".join([lines[0], "", ",".join(parts)]) + "\n"
        with pytest.raises(ValueError, match=f"line 3, column {column}: '{re.escape(value)}' {problem}"):
            records_from_csv(text)

    def test_emit_report_files(self, tiny_records, tmp_path):
        cfg = SweepConfig(p=2.0, **TINY)
        r0 = r0_from_records(tiny_records)
        pred = asymptotics.predict(2.0, 2, 1.0, r0.R0, C_o=asymptotics.c_o_table(2, 2, 1.0))
        fits = {
            "gap": fit_power_law(tiny_records, "gap", pred),
            "gradMax": fit_power_law(tiny_records, "gradMax", pred),
        }
        verdicts = {"theorem_ratio": verify_theorem(tiny_records, r0, pred)}
        emit_report(tiny_records, fits, verdicts, tmp_path, config=cfg, r0=r0,
                    prediction=pred)
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "fluxes.csv", "plots.gp", "report.json", "sweep.csv"]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fits"]["gap"]["slope"] == fits["gap"].slope
        assert report["verdicts"]["theorem_ratio"]["passed"] is True
        assert report["r0"]["R0"] == r0.R0
        # the blocks written straight from their dataclasses, key for key
        fit_keys = {"quantity", "slope", "prefactor", "residual", "n_points",
                    "predicted_slope", "predicted_prefactor", "slope_deviation",
                    "prefactor_deviation_rel"}
        assert set(report["fits"]["gap"]) == fit_keys
        assert set(report["fits"]["gradMax"]) == fit_keys
        assert set(report["verdicts"]["theorem_ratio"]) == {
            "deltas", "ratios", "in_band", "deviations_decreasing", "passed"}
        assert set(report["prediction"]) == {
            "p", "d", "R", "R0", "C_o", "gamma", "gap_exponent", "grad_exponent",
            "gap_coefficient"}
        assert set(report["r0"]) == {"ladder", "R0", "slope", "residual",
                                     "max_fit_residual"}
        assert report["fits"]["gap"]["slope_deviation"] == fits["gap"].slope_deviation
        # the p = 2 Q report of every delta, keyed like "errors"
        q = report["q_functional"]
        assert set(q) == {repr(r.delta) for r in tiny_records}
        for rec in tiny_records:
            entry = q[repr(rec.delta)]
            assert set(entry) == {"Q", "R_delta", "T_tied", "a", "b",
                                  "identity_defect", "reciprocity_defect"}
            for name in ("Q", "R_delta", "T_tied", "identity_defect", "reciprocity_defect"):
                assert entry[name] == getattr(rec.q_report, name)
            assert entry["a"] == [list(row) for row in rec.q_report.a]
            assert entry["b"] == list(rec.q_report.b)
        gp = (tmp_path / "plots.gp").read_text()
        assert "sweep.csv" in gp and "logscale" in gp
        # the script draws the fitted and the predicted slope
        for fit in fits.values():
            assert f"{fit.prefactor!r} * x**{fit.slope!r}" in gp
            assert (f"{fit.predicted_prefactor!r} * x**{fit.predicted_slope!r} "
                    f"with lines dt 2 title 'predicted slope {fit.predicted_slope!r}'") in gp
        # CSV rows = ladder length
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(tiny_records)
        # one flux row per curve per solve: 5 curves x 2 solves per delta
        flux_lines = (tmp_path / "fluxes.csv").read_text().strip().splitlines()
        assert flux_lines[0] == "delta,kind,curve,flux"
        assert len(flux_lines) == 1 + 10 * len(tiny_records)

    def test_report_json_round_trips_fits_exactly(self, tiny_records, tmp_path):
        r0 = r0_from_records(tiny_records)
        pred = asymptotics.predict(2.0, 2, 1.0, r0.R0, C_o=asymptotics.c_o_table(2, 2, 1.0))
        fits = {"gap": fit_power_law(tiny_records, "gap", pred)}
        emit_report(tiny_records, fits, {}, tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fits"]["gap"] == dataclasses.asdict(fits["gap"])

    def test_empty_records(self, tmp_path):
        emit_report([], {}, {}, tmp_path)
        text = (tmp_path / "sweep.csv").read_text()
        assert text == ",".join(CSV_COLUMNS) + "\n"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fits"] == {}
        assert "q_functional" not in report  # no record carries a Q report

    def test_csv_bytes_deterministic_outside_timing(self, tiny_records, tmp_path):
        again = run_sweep(SweepConfig(p=2.0, **TINY))

        def strip_wall(text):
            return "\n".join(",".join(ln.split(",")[:-1]) for ln in text.splitlines())

        a = records_to_csv(tiny_records)
        b = records_to_csv(again)
        assert strip_wall(a) == strip_wall(b)
