"""Spans and counts around calls into gaplaw, for the traced passes.

The wrappers are installed only around a traced pass, by rebinding the
names that each caller looks up at call time: `gaplaw.sweep.build_mesh`,
`gaplaw.mesh.Delaunay`, `gaplaw.solver.spla`, the benchmark's own
workload module, and so on.  Nothing under `src/gaplaw` is edited, and the
untraced passes call the original functions.

Spans are kept in memory as (pass, id, parent, name, t0, t1) and written
out as JSON lines when the run ends.  A span's self time is its duration
minus the durations of its direct children; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module that makes the call, name it calls, span).  A dotted name such as
# "spla.spsolve" rebinds the module alias `spla` in the caller to a proxy in
# which only that attribute is wrapped.  Names a caller does not have are
# skipped and listed as absent in the run record.  `spla.splu` and
# `spla.factorized` are there for a solver that stops calling `spsolve`.
# On the code this was written against nothing is absent, so an absent hook
# means a call moved and its layer reads low.
REBIND = (
    ("workloads", "cli_main", "cli.main"),
    ("gaplaw.cli", "run_sweep", "sweep.run"),
    ("gaplaw.cli", "r0_from_records", "sweep.analysis"),
    ("gaplaw.cli", "fit_power_law", "sweep.analysis"),
    ("gaplaw.cli", "verify_theorem", "sweep.analysis"),
    ("gaplaw.cli", "emit_report", "sweep.emit"),
    ("gaplaw.cli", "asymptotics.c_o_quadrature", "asymptotics"),
    ("gaplaw.cli", "asymptotics.predict", "asymptotics"),
    ("gaplaw.sweep", "build_mesh", "mesh.build"),
    ("gaplaw.sweep", "solve_floating", "solver.floating"),
    ("gaplaw.sweep", "solve_tied", "solver.tied"),
    ("gaplaw.sweep", "solve_linear_aux", "solver.aux"),
    ("gaplaw.sweep", "grad_max", "solver.grad_max"),
    ("gaplaw.sweep", "flux_report", "flux.report"),
    ("gaplaw.sweep", "r_delta", "flux.report"),
    ("gaplaw.sweep", "q_functional", "flux.report"),
    ("gaplaw.sweep", "sample_neck_flux", "flux.report"),
    ("gaplaw.sweep", "barrier_flux_bound", "barriers.bound"),
    ("gaplaw.mesh", "Delaunay", "mesh.delaunay"),
    ("gaplaw.solver", "energy", "solver.energy"),
    ("gaplaw.solver", "spla.spsolve", "solver.linsolve"),
    ("gaplaw.solver", "spla.splu", "solver.linsolve"),
    ("gaplaw.solver", "spla.factorized", "solver.linsolve"),
    ("workloads", "build_mesh", "mesh.build"),
    ("workloads", "solve_floating", "solver.floating"),
    ("workloads", "solve_tied", "solver.tied"),
    ("workloads", "grad_max", "solver.grad_max"),
    ("workloads", "flux_report", "flux.report"),
    ("workloads", "r_delta", "flux.report"),
    ("workloads", "verify_barrier", "sweep.verify_barrier"),
)

SOLVER_SPANS = ("solver.floating", "solver.tied", "solver.aux")


class _Alias:
    """Stands in for a module alias, wrapping some of its attributes."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class _TimedFactor:
    """A factorization whose later solves are timed as linear solves."""

    def __init__(self, tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def solve(self, *args, **kwargs):
        with self._tracer.span("solver.linsolve"):
            return self._inner.solve(*args, **kwargs)

    def __call__(self, *args, **kwargs):
        with self._tracer.span("solver.linsolve"):
            return self._inner(*args, **kwargs)


def _solution_counts(tracer, sol):
    tracer.count("solver.newton_iters", sol.newton_iters)
    tracer.count("solver.p_stages", len({t.get("p") for t in sol.trace}))


def _emit_bytes(tracer, args, kwargs):
    outdir = Path(args[3] if len(args) > 3 else kwargs["outdir"])
    tracer.count(
        "sweep.bytes_written",
        sum(f.stat().st_size for f in outdir.iterdir() if f.is_file()),
    )


class Tracer:
    """Spans and counts of the traced passes, and the wrappers that make them.

    `modules` maps each caller named in REBIND to its module object.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.installed: list[str] = []
        self.absent: list[str] = []

    # -- recording ------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (self.pass_id, sid, parent, name, t0, t1)

    def count(self, key: str, value: float = 1) -> None:
        self.counts[self.pass_id][key] += value

    def _wrap(self, name: str, span: str, fn):
        def traced(*args, **kwargs):
            with self.span(span):
                out = fn(*args, **kwargs)
                if span == "mesh.build":
                    self.count("mesh.nodes", out.n_nodes)
                elif span in SOLVER_SPANS:
                    _solution_counts(self, out)
                elif span == "sweep.emit":
                    _emit_bytes(self, args, kwargs)
                elif span == "solver.linsolve" and name.endswith(("splu", "factorized")):
                    out = _TimedFactor(self, out)
            self.count(span + ".calls")
            return out

        return traced

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        aliases = {}
        for modname, name, span in REBIND:
            mod = self.modules[modname]
            alias, _, attr = name.rpartition(".")
            if alias:
                target = getattr(mod, alias, None)
                if target is None or not hasattr(target, attr):
                    self._note(self.absent, f"{modname}.{name}")
                    continue
                if (modname, alias) not in aliases:
                    aliases[modname, alias] = _Alias(target)
                    self._saved.append((mod, alias, target))
                    setattr(mod, alias, aliases[modname, alias])
                setattr(aliases[modname, alias], attr, self._wrap(name, span, getattr(target, attr)))
            else:
                if not hasattr(mod, name):
                    self._note(self.absent, f"{modname}.{name}")
                    continue
                self._saved.append((mod, name, getattr(mod, name)))
                setattr(mod, name, self._wrap(name, span, getattr(mod, name)))
            self._note(self.installed, f"{modname}.{name}")

    @staticmethod
    def _note(seen: list, item: str) -> None:
        if item not in seen:
            seen.append(item)

    def uninstall(self) -> None:
        while self._saved:
            mod, name, orig = self._saved.pop()
            setattr(mod, name, orig)

    # -- per-pass layer metrics ---------------------------------------------

    def layers(self, pass_id: int, wall: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass that took `wall` seconds."""
        spans = [s for s in self.spans if s[0] == pass_id]
        total = defaultdict(float)
        own = defaultdict(float)
        top = 0.0
        for _, _, parent, name, t0, t1 in spans:
            total[name] += t1 - t0
            own[name] += t1 - t0
            if parent is None:
                top += t1 - t0
            else:
                own[self.spans[parent][3]] -= t1 - t0
        n = self.counts[pass_id]
        return {
            "mesh.build_s": total["mesh.build"],
            "mesh.calls": n["mesh.build.calls"],
            "mesh.nodes": n["mesh.nodes"],
            "mesh.delaunay_calls": n["mesh.delaunay.calls"],
            "mesh.delaunay_s": total["mesh.delaunay"],
            "solver.floating_s": total["solver.floating"],
            "solver.tied_s": total["solver.tied"],
            "solver.aux_s": total["solver.aux"],
            "solver.newton_iters": n["solver.newton_iters"],
            "solver.p_stages": n["solver.p_stages"],
            "solver.linsolve_calls": n["solver.linsolve.calls"],
            "solver.linsolve_s": total["solver.linsolve"],
            "solver.energy_calls": n["solver.energy.calls"],
            "solver.energy_s": total["solver.energy"],
            "solver.self_s": sum(own[s] for s in SOLVER_SPANS),
            "solver.grad_max_s": total["solver.grad_max"],
            "flux.report_s": total["flux.report"],
            "flux.calls": n["flux.report.calls"],
            "barriers.bound_calls": n["barriers.bound.calls"],
            "barriers.bound_s": total["barriers.bound"],
            "asymptotics.s": total["asymptotics"],
            "sweep.analysis_s": total["sweep.analysis"],
            "sweep.emit_s": total["sweep.emit"],
            "sweep.bytes_written": n["sweep.bytes_written"],
            "sweep.self_s": own["sweep.run"] + own["sweep.verify_barrier"],
            "cli.self_s": own["cli.main"],
            "bench.check_s": total["bench.check"],
            "unattributed_s": wall - top,
            "trace.spans": len(spans),
        }

    def write(self, path: Path) -> None:
        """All spans and counts as JSON lines, one object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for pid, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"pass": pid, "id": sid, "parent": parent,
                                     "name": name, "t0": t0, "t1": t1}) + "\n")
            for pid, counts in sorted(self.counts.items()):
                fh.write(json.dumps({"pass": pid, "counts": dict(counts)}) + "\n")


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to a plain call: median of `repeats`
    timings of `calls` calls of a no-op, wrapped minus unwrapped."""
    probe = Tracer({})

    def plain():
        return None

    wrapped = probe._wrap("probe", "probe", plain)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            plain()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
        probe.spans.clear()
    return statistics.median(costs)
