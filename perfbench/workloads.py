"""The benchmark's workloads: inputs from a seed, one pass, output checks.

A workload object is built once per process (that is set-up), then
`run_pass()` is called in a closed loop: one pass at a time, each pass
ending with the checks of its outputs.  A failed check raises CheckFailed.

ladder-p2  `gaplaw sweep` on SweepConfig(p=2): five delta from about 0.04
           down to 0.0025, floating + tied + three linear auxiliaries per
           delta, Q functional, fits, verdicts, written outputs.  The
           acceptance suite's sweep; the mesher is about 90% of it.
ladder-p3  the same with p = 3: continuation 2 -> 2.5 -> 3, 12-14 Newton
           steps per floating solve on small (0.9k-1.6k node) systems.
fine-p6    one ~21k-node mesh at delta ~ 0.0025, floating + tied solves at
           p = 3 and p = 6 (9 continuation stages), flux reports, R_delta,
           grad_max and the barrier verdict.  Solver-bound.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import shutil
from pathlib import Path

from gaplaw.cli import main as cli_main
from gaplaw.flux import flux_report, r_delta
from gaplaw.geometry import NeckSpec
from gaplaw.mesh import TAG_OUTER, MeshParams, build_mesh
from gaplaw.solver import grad_max, solve_floating, solve_tied
from gaplaw.sweep import SweepConfig, verify_barrier

# acceptance tolerances the checks apply (criteria 6, 7 and 8)
RATIO_BAND = (0.85, 1.15)
FLUX_DEFECT_MAX = 1e-4
BALANCE_DEFECT_MAX = 1e-6
BARRIER_COVERAGE_MIN = 0.95


class CheckFailed(Exception):
    """An output of a pass is missing or outside its tolerance."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Ladder:
    """`gaplaw sweep` through the CLI entry point, outputs read back."""

    def __init__(self, p: float, seed: int, workdir: Path):
        rng = random.Random(seed)
        # every start in this range passes the acceptance verdicts
        self.cfg = SweepConfig(p=p, delta_start=rng.uniform(0.036, 0.044))
        self.config_path = workdir / "config.json"
        self.config_path.write_text(self.cfg.to_json())
        self.out = workdir / "out"

    def inputs(self) -> dict:
        return {"p": self.cfg.p, "deltas": list(self.cfg.deltas)}

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run_pass(self, span) -> None:
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli_main(["sweep", "--config", str(self.config_path), "--out", str(self.out)])
        with span("bench.check"):
            self._check(rc, log.getvalue())

    def _check(self, rc: int, log: str) -> None:
        _require(rc == 0, f"gaplaw sweep exited {rc}: {log.strip()[-300:]}")
        report = json.loads((self.out / "report.json").read_text())
        _require(not report["errors"], f"ladder errors {report['errors']}")
        ratios = report["verdicts"]["theorem_ratio"]["ratios"]
        _require(
            len(ratios) >= 2 and all(RATIO_BAND[0] <= r <= RATIO_BAND[1] for r in ratios[-2:]),
            f"smallest-delta ratios {ratios[-2:]} outside {RATIO_BAND}",
        )
        with (self.out / "sweep.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = [float(r["delta"]) for r in rows]
        _require(
            len(got) == len(self.cfg.deltas)
            and all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, self.cfg.deltas)),
            f"sweep.csv deltas {got} != {list(self.cfg.deltas)}",
        )
        defects = [float(r["flux_defect"]) for r in rows]
        _require(
            all(d <= FLUX_DEFECT_MAX for d in defects),  # false for nan too
            f"flux_defect {max(defects)} > {FLUX_DEFECT_MAX}",
        )


class Fine:
    """One refined mesh, long p-continuation, post-processing."""

    P = (3.0, 6.0)
    MESH = MeshParams(h_far=0.075, neck_layers=16)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.delta = rng.uniform(0.00225, 0.00275)
        cfg = SweepConfig()  # domain and solver settings of the default sweep
        self.domain = cfg.domain(self.delta)
        self.neck = NeckSpec(self.domain.pair, cfg.w)
        self.solver = cfg.solver_config()

    def inputs(self) -> dict:
        return {
            "delta": self.delta,
            "p": list(self.P),
            "h_far": self.MESH.h_far,
            "neck_layers": self.MESH.neck_layers,
        }

    def reset(self) -> None:
        pass

    def run_pass(self, span) -> None:
        mesh = build_mesh(self.domain, self.MESH)
        results = []
        for p in self.P:
            fsol = solve_floating(mesh, p=p, config=self.solver)
            tsol = solve_tied(mesh, p=p, config=self.solver)
            results.append((
                p, fsol, tsol,
                flux_report(fsol, self.neck),
                flux_report(tsol, self.neck),
                r_delta(tsol),
                grad_max(fsol, "neck", self.neck)[0],
                verify_barrier(fsol, self.neck, p=p),
            ))
        with span("bench.check"):
            self._check(mesh, results)

    def _check(self, mesh, results) -> None:
        outer = self.domain.datum_values(mesh.nodes[mesh.nodes_with_tag(TAG_OUTER)])
        lo, hi = float(outer.min()), float(outer.max())
        for p, fsol, tsol, frep, trep, rd, gmax, barrier in results:
            # criterion 8: global balance, floating per-particle, tied combined
            for rep in (frep, trep):
                _require(rep.balance_defect_rel <= BALANCE_DEFECT_MAX,
                         f"p={p} {rep.kind} balance defect {rep.balance_defect_rel}")
            _require(max(frep.particle_defects_rel) <= FLUX_DEFECT_MAX,
                     f"p={p} floating particle defects {frep.particle_defects_rel}")
            _require(trep.combined_defect_rel <= FLUX_DEFECT_MAX,
                     f"p={p} tied combined defect {trep.combined_defect_rel}")
            _require(barrier.coverage >= BARRIER_COVERAGE_MIN,
                     f"p={p} barrier coverage {barrier.coverage}")
            for T in (fsol.T1, fsol.T2, tsol.T1):
                _require(lo <= T <= hi, f"p={p} potential {T} outside datum range [{lo}, {hi}]")
            _require(rd > 0.0 and math.isfinite(gmax),
                     f"p={p} R_delta {rd}, neck grad max {gmax}")


def make(name: str, seed: int, workdir: Path):
    if name == "ladder-p2":
        return Ladder(2.0, seed, workdir)
    if name == "ladder-p3":
        return Ladder(3.0, seed, workdir)
    if name == "fine-p6":
        return Fine(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
