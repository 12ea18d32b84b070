#!/usr/bin/env python3
"""gaplaw benchmark: one workload in a closed loop, one JSON result line.

    python3 perfbench/run.py --workload ladder-p2 --seed 1 --seconds 30 --trace 0

Runs passes of the workload one after another, in this one process, until
`--seconds` have elapsed (at least one pass), and checks each pass's
outputs.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: wall_s (median seconds
per checked pass), setup_s (median over several fresh processes of the time
from process start to the first pass) and peak_rss_mb.  With --trace 1 the
run alternates untraced and traced passes and reports the per-layer medians
of the traced ones, plus the tracing overhead.  The line before it is the
run record: inputs, versions, thread caps, source identity, every pass time
and every failure.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("ladder-p2", "ladder-p3", "fine-p6")
SETUP_PROBES = 5
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def monotonic() -> float:
    """A clock that parent and child processes share."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cap_threads() -> int:
    """Run BLAS/OpenMP single-threaded; return the CPUs this process may use.

    gaplaw's work is serial Python, numpy and SuperLU.  A BLAS pool only
    spins on the second CPU, where it meets the set-up probes and the rest
    of the machine, which makes pass times less steady.  Must run before
    numpy is imported.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(nproc: int) -> dict:
    import numpy
    import scipy

    sources = sorted((SRC / "gaplaw").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": nproc,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,  # wc -l src/gaplaw/*.py; informational
    }


def setup_probe(args) -> float:
    """Process start to first pass, measured in a fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = monotonic()
    child = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(child.stdout.split()[-1]) - t0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the monotonic clock, exit (used for setup_s)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    if not (SRC / "gaplaw").is_dir():
        print(f"error: no gaplaw sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gaplaw

    if Path(gaplaw.__file__).resolve().parent != SRC / "gaplaw":
        print(f"error: imported gaplaw from {gaplaw.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        load = workloads.make(args.workload, args.seed, workdir)
        if args.setup_only:
            print(repr(monotonic()))
            return 0
        return measure(args, load, nproc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, load, nproc: int) -> int:
    import workloads
    from tracer import Tracer, wrapper_cost

    tracer = None
    if args.trace:
        tracer = Tracer({name: sys.modules[name] for name in (
            "workloads", "gaplaw.cli", "gaplaw.sweep", "gaplaw.mesh", "gaplaw.solver")})
        per_span = wrapper_cost()
    # set-up probes are spread over the run (one before the first pass, one
    # after each pass, the rest at the end) so that they sample the host's
    # speed at several moments, as the passes do
    probes = 0 if args.trace else SETUP_PROBES
    setup = [setup_probe(args)] if probes else []

    walls = {False: [], True: []}
    layers = []
    failures = []
    attempted = 0
    measured = step = 0.0
    # passes run while the next one (or pair) still fits in --seconds, so a
    # run ends near its budget however long one pass takes; at least one runs
    while attempted == 0 or measured + step <= args.seconds:
        step_start = time.perf_counter()
        # traced runs pair each traced pass with an untraced one, alternating
        # which goes first, so the difference is the tracing overhead
        order = (False, True) if len(walls[True]) % 2 == 0 else (True, False)
        for traced in order if tracer else (False,):
            load.reset()
            if traced:
                tracer.pass_id = attempted
                tracer.install()
            span = tracer.span if traced else _untraced
            t0 = time.perf_counter()
            try:
                load.run_pass(span)
            except Exception as exc:  # noqa: BLE001 - a failed pass is counted, not fatal
                kind = "check" if isinstance(exc, workloads.CheckFailed) else "raised"
                failures.append({"pass": attempted, "kind": kind,
                                 "error": f"{type(exc).__name__}: {exc}",
                                 "traceback": traceback.format_exc(limit=-3)})
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
                layers.append(tracer.layers(attempted, wall))
            walls[traced].append(wall)
            attempted += 1
        step = time.perf_counter() - step_start
        measured += step
        if len(setup) < probes:
            setup.append(setup_probe(args))
    while len(setup) < probes:
        setup.append(setup_probe(args))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": load.inputs(),
        "passes": attempted,
        "pass_s": walls[False],
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        **run_record(nproc),
    }
    if tracer:
        spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        wall, untraced = statistics.median(walls[True]), statistics.median(walls[False])
        metrics = {key: statistics.median(row[key] for row in layers) for key in layers[0]}
        metrics["trace.wall_s"] = wall
        # the difference of two medians carries the host's drift; the spans
        # made times the cost of one span is the tracer's own cost
        metrics["trace.overhead_s"] = wall - untraced
        metrics["trace.cost_s"] = metrics["trace.spans"] * per_span
        record.update(traced_pass_s=walls[True], spans_file=str(spans_file.relative_to(ROOT)),
                      span_cost_s=per_span,
                      hooks_installed=tracer.installed, hooks_absent=tracer.absent)
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["setup_s_samples"] = setup
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric == "asymptotics.s":
        return "s"
    if metric == "peak_rss_mb":
        return "MB"
    if metric == "sweep.bytes_written":
        return "bytes"
    return "count"


def _untraced(name: str) -> contextlib.nullcontext:
    return contextlib.nullcontext()


if __name__ == "__main__":
    sys.exit(main())
