import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaplaw
import gaplaw.sweep as sweep
from gaplaw.cli import main
from gaplaw.sweep import CSV_COLUMNS, SweepConfig, records_to_csv, run_sweep


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = SweepConfig(p=2.0, delta_start=0.04, delta_count=3, h_far=0.45)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return path


class TestConstants:
    def test_d2_consistent(self, capsys):
        assert main(["constants", "--p", "3", "--d", "2", "--R", "1"]) == 0
        out = capsys.readouterr().out
        assert "gamma: 1.5" in out
        assert "MISMATCH" not in out

    @pytest.mark.parametrize("p,d", [(3, 2), (3, 3), (2, 3), (2.5, 2)])
    def test_labels_name_the_limit_constant(self, capsys, p, d):
        # the limit constant is a closed form; no quadrature is computed
        assert main(["constants", "--p", str(p), "--d", str(d)]) == 0
        out = capsys.readouterr().out
        assert "quadrature" not in out
        assert "(closed form, delta -> 0)" in out
        if d == 3 and p == 3:
            assert "ratio limit/table: " in out

    def test_d3_flags_mismatch(self, capsys):
        assert main(["constants", "--p", "3", "--d", "3"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH FLAGGED" in out
        assert "2^(p-2)" in out

    def test_log_case(self, capsys):
        assert main(["constants", "--p", "2", "--d", "3"]) == 0
        out = capsys.readouterr().out
        assert "logarithmic" in out

    def test_error_exit_code(self, capsys):
        assert main(["constants", "--p", "1.5", "--d", "2"]) == 1

    @pytest.mark.parametrize("argv,named", [
        (["--p", "nan", "--d", "2"], "p=nan"), (["--p", "inf", "--d", "2"], "p=inf"),
        (["--p", "3", "--d", "2", "--R", "nan"], "R=nan"),
        (["--p", "2", "--d", "3", "--R", "inf"], "R=inf"),
        (["--p", "200", "--d", "2"], "p=200"),
    ])
    def test_bad_value_named(self, capsys, argv, named):
        assert main(["constants", *argv]) == 1
        assert named in capsys.readouterr().err


class TestSweepCommand:
    def test_pass_run(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(tiny_config), "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "plots.gp").exists()
        stdout = capsys.readouterr().out
        assert "verdict: PASS" in stdout

    def test_missing_config_errors(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 1

    def test_wrong_typed_value_is_named(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"p": "3"}')
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert "error: p must be a real number, got '3'" in capsys.readouterr().err

    def test_short_ladder_refused_before_meshing(self, tmp_path, capsys, monkeypatch):
        built = []

        def build_mesh(*args, **kwargs):
            built.append(args)
            raise AssertionError("a mesh was built for a ladder too short to fit")

        monkeypatch.setattr("gaplaw.sweep.build_mesh", build_mesh)
        config = tmp_path / "config.json"
        config.write_text('{"delta_count": 2, "h_far": 0.45}')
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert "delta_count" in capsys.readouterr().err
        assert built == []
        assert not (tmp_path / "out").exists()

    def test_status_printed_before_the_analysis(self, tiny_config, tmp_path, capsys, monkeypatch):
        def analyze(*args, **kwargs):
            raise ValueError("analysis refused")

        monkeypatch.setattr("gaplaw.cli.analyze", analyze)
        assert main(["sweep", "--config", str(tiny_config), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line.partition(":")[0] for line in lines] == ["delta=0.04", "delta=0.02",
                                                              "delta=0.01"]
        assert all(line.endswith("[ok]") for line in lines), lines
        assert "error: analysis refused" in captured.err
        # the ladder is written without a judgement
        out = tmp_path / "out"
        assert sorted(f.name for f in out.iterdir()) == ["fluxes.csv", "report.json",
                                                          "sweep.csv"]
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 3
        report = json.loads((out / "report.json").read_text())
        assert report["fits"] == {} and report["verdicts"] == {}
        assert report["r0"] is None and report["prediction"] is None
        assert report["errors"] == {}

    def test_failed_delta_kept_in_the_report(self, tmp_path, capsys, monkeypatch):
        real = sweep.build_mesh

        def build_mesh(dom, params):
            if dom.pair.delta == 0.02:
                raise RuntimeError("no mesh at the second delta")
            return real(dom, params)

        monkeypatch.setattr(sweep, "build_mesh", build_mesh)
        config = tmp_path / "config.json"
        config.write_text(SweepConfig(delta_count=4, h_far=0.45).to_json())
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) in (0, 2)
        assert "delta=0.02: gap=nan gradmax=nan [RuntimeError: no mesh at the second delta]" \
            in capsys.readouterr().out.splitlines()
        report = json.loads((out / "report.json").read_text())
        assert report["errors"] == {"0.02": "RuntimeError: no mesh at the second delta"}
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.04, 0.01, 0.005]
        assert report["fits"]["gap"]["n_points"] == 3

    def test_every_delta_failing_is_reported(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("gaplaw.solver.MAX_ITER", 1)
        config = tmp_path / "config.json"
        config.write_text(SweepConfig(p=3.0, delta_count=3, h_far=0.45).to_json())
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 3, lines
        assert all("[SolverError: Newton did not converge in 1 iterations" in line
                   for line in lines), lines
        assert captured.err.startswith("error: ")
        report = json.loads((out / "report.json").read_text())
        assert sorted(report["errors"]) == sorted(repr(d) for d in (0.04, 0.02, 0.01))
        assert all(e.startswith("SolverError: ") for e in report["errors"].values())
        assert report["fits"] == {} and report["r0"] is None
        assert (out / "sweep.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"
        assert not (out / "fluxes.csv").exists()

    @pytest.mark.parametrize("text,kind", [("null", "NoneType"), ('"p"', "str"),
                                           ("[1, 2]", "list")])
    def test_config_not_an_object(self, tmp_path, capsys, text, kind):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert f"error: a SweepConfig must be a JSON object, got {kind}" in capsys.readouterr().err


class TestSolveCommand:
    def test_floating_solve(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "solve_out"
        rc = main(["solve", "--config", str(tiny_config), "--out", str(out),
                   "--delta", "0.04"])
        assert rc == 0
        assert (out / "solution.txt").exists()
        flux = json.loads((out / "flux.json").read_text())
        assert flux["kind"] == "floating"
        assert abs(flux["T1"] + flux["T2"]) < 1e-8
        assert abs(flux["particle_defects_rel"][0]) < 1e-10

    def test_tied_solve(self, tiny_config, tmp_path):
        out = tmp_path / "tied_out"
        rc = main(["solve", "--config", str(tiny_config), "--out", str(out),
                   "--kind", "tied"])
        assert rc == 0
        flux = json.loads((out / "flux.json").read_text())
        assert flux["r_delta"] > 0.0
        assert flux["r_delta"] == flux["flux_particle2"]

    def test_prescribed_solve(self, tiny_config, tmp_path):
        out = tmp_path / "prescribed_out"
        assert main(["solve", "--config", str(tiny_config), "--out", str(out),
                     "--kind", "prescribed", "--T1", "-0.5", "--T2", "0.5"]) == 0
        flux = json.loads((out / "flux.json").read_text())
        assert flux["kind"] == "prescribed"
        assert (flux["T1"], flux["T2"]) == (-0.5, 0.5)
        assert "r_delta" not in flux

    def test_flux_json_names_every_curve(self, tiny_config, tmp_path):
        out = tmp_path / "tied_out"
        assert main(["solve", "--config", str(tiny_config), "--out", str(out),
                     "--kind", "tied"]) == 0
        flux = json.loads((out / "flux.json").read_text())
        curves = [f"flux_{c}" for c in ("outer", "particle1", "particle2", "neck_arc",
                                        "particle2_away")]
        assert set(curves) | {"scale"} <= set(flux), sorted(flux)
        assert flux["scale"] == max(abs(flux[key]) for key in curves)
        split = flux["flux_neck_arc"] + flux["flux_particle2_away"] - flux["flux_particle2"]
        assert abs(split) <= 1e-12 * flux["scale"]


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    cfg = SweepConfig(p=2.0, delta_start=0.04, delta_count=3, h_far=0.45)
    path = tmp_path_factory.mktemp("tiny-sweep") / "sweep.csv"
    path.write_text(records_to_csv(run_sweep(cfg)))
    return path


class TestFitAndReport:
    @pytest.mark.parametrize("command", ["report"])
    @pytest.mark.parametrize("flag,value", [("--p", "nan"), ("--p", "inf"), ("--R", "nan")])
    def test_non_finite_p_or_R_named(self, tiny_csv, tmp_path, capsys, command, flag, value):
        options = {"--p": "2", "--R": "1", flag: value}
        argv = [command, "--records", str(tiny_csv), *sum(options.items(), ()),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert f"{flag[2:]}={value}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_non_finite_record_named(self, tiny_csv, tmp_path, capsys):
        header, first, *rest = tiny_csv.read_text().splitlines()
        parts = first.split(",")
        parts[CSV_COLUMNS.index("r_delta")] = "nan"
        bad = tmp_path / "sweep.csv"
        bad.write_text("\n".join([header, ",".join(parts), *rest]) + "\n")
        out = tmp_path / "out"
        assert main(["report", "--records", str(bad), "--p", "2", "--out", str(out)]) == 1
        assert "line 2, column r_delta: 'nan' is not finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_report_regenerates(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        main(["sweep", "--config", str(tiny_config), "--out", str(out)])
        report1 = json.loads((out / "report.json").read_text())
        # the summary that follows the sweep's per-delta status lines
        summary = capsys.readouterr().out.splitlines()[-5:]
        assert summary[0].startswith("R0 = ") and summary[-1] == "verdict: PASS"
        csv = str(out / "sweep.csv")
        out2 = tmp_path / "out2"
        rc = main(["report", "--records", csv, "--p", "2", "--out", str(out2)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == summary
        report2 = json.loads((out2 / "report.json").read_text())
        for block in ("fits", "verdicts", "r0", "prediction"):
            assert report2[block] == report1[block], block
        for q, label in (("gap", "gap"), ("gradMax", "gradmax")):
            fit = report1["fits"][q]
            assert (f"{label} slope {fit['slope']:.4f} (predicted {fit['predicted_slope']})"
                    in summary)
        # `fit` folded into `report`: argparse refuses the subcommand
        with pytest.raises(SystemExit) as exit_info:
            main(["fit", "--records", csv, "--p", "2"])
        assert exit_info.value.code == 2
        # another radius changes C_o, so verdicts may fail, but it is no error
        rc = main(["report", "--records", csv, "--p", "2", "--R", "2",
                   "--out", str(tmp_path / "out3")])
        assert rc in (0, 2)


SRC = Path(gaplaw.__file__).resolve().parent


class TestNoRuntimeSympy:
    """sympy is the tests' exactness oracle, not a runtime dependency; the
    neck integrals are closed forms, so scipy.integrate and scipy.optimize
    are not runtime dependencies either, and the limit constant takes its
    beta function from math.gamma, so scipy.special is not one.  The
    package imports none of its modules, so the standard-library
    asymptotics loads without numpy or scipy."""

    def test_import_surface(self):
        imported = {}
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    if name.split(".")[0] not in sys.stdlib_module_names:
                        imported.setdefault(name, []).append(path.name)
        assert sorted(imported) == ["numpy", "scipy.sparse", "scipy.sparse.linalg",
                                    "scipy.spatial"], imported
        assert all("asymptotics.py" not in files for files in imported.values()), imported

    def test_no_module_imports_sympy(self):
        offenders = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                offenders += [f"{path.name}:{node.lineno}" for n in names
                              if n.split(".")[0] == "sympy"]
        assert offenders == []

    def test_asymptotics_loads_without_numpy(self):
        code = "import sys, gaplaw.asymptotics\nprint(sorted({'numpy', 'scipy'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_runs_with_sympy_blocked(self):
        code = (
            "import sys; sys.modules['sympy'] = None\n"
            "sys.modules['scipy.integrate'] = sys.modules['scipy.optimize'] = None\n"
            "import gaplaw\n"
            "from gaplaw.cli import main\n"
            "sys.exit(main(['constants', '--p', '3', '--d', '2']))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "gamma: 1.5" in proc.stdout
