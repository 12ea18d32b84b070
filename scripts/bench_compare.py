#!/usr/bin/env python3
"""Paired before/after benchmark: a parent revision against the working tree.

    python3 scripts/bench_compare.py --parent HEAD~1 --pairs 10 --seconds 30 --out BENCH.json

Both sides run from fresh copies in one temporary directory: the parent
revision exported with `git archive`, and beside it the working tree's
tracked files (`git ls-files`) as they are on disk, so uncommitted edits
count and untracked files, `__pycache__` and `.perfbench-work` do not.
HEAD's perfbench/ is put over both copies, so one harness measures both
sides.  For each workload, `perfbench/run.py --trace 0` then runs in
alternating pairs: pair k runs both sides with the fresh seed `--seed` + k,
and the side that goes first alternates from pair to pair.
After the pairs, one traced run (`--trace 1`, seed `--seed`) per side gives
the per-layer metrics of one seed.

The JSON written to `--out` holds, per workload and end-to-end metric of
BENCHMARK.json, each side's median, quartiles and values and the pairs the
change wins (strictly better in the metric's direction); each side's
failed_frac (failed over attempted passes); the traced per-layer metrics;
and, per side, the revision, `src_lines` (wc -l src/gaplaw/*.py), the
options census (the field counts of `SweepConfig`, `MeshParams` and
`SolverConfig`, imported from that side's tree), the python, numpy and
scipy versions and nproc from the run records.  Nothing under perfbench/
and no bound in BENCHMARK.json is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, dest: Path, *paths: str) -> None:
    """`rev`'s committed files (under `paths`, if given) in `dest`."""
    dest.mkdir(parents=True, exist_ok=True)
    archive = dest.parent / f"{dest.name}.tar"
    git("archive", "--format=tar", "-o", str(archive), rev, *paths)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(dest)], check=True)
    archive.unlink()


def copy_tracked(dest: Path) -> None:
    """The working tree's tracked files, as they are on disk, in `dest`."""
    for name in git("ls-files", "-z").split("\0"):
        if name and (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def fresh_trees(parent: str, tmp: Path) -> dict:
    """Both sides copied under `tmp`, each with HEAD's perfbench/."""
    trees = {"parent": tmp / "parent", "change": tmp / "change"}
    export(parent, trees["parent"])
    copy_tracked(trees["change"])
    for tree in trees.values():
        shutil.rmtree(tree / "perfbench", ignore_errors=True)
        export("HEAD", tree, "perfbench")
    return trees


CENSUS = """
import dataclasses, json
from gaplaw.mesh import MeshParams
from gaplaw.solver import SolverConfig
from gaplaw.sweep import SweepConfig
print(json.dumps({cls.__name__: len(dataclasses.fields(cls))
                  for cls in (SweepConfig, MeshParams, SolverConfig)}))
"""


def options(tree: Path) -> dict:
    """The field count of each config class in `tree`'s source."""
    child = subprocess.run([sys.executable, "-c", CENSUS], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONPATH": str(tree / "src")})
    return json.loads(child.stdout)


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The run record and the result line of one run.py process."""
    child = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=tree,
    )
    lines = child.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(trees: dict, metrics: list[dict], workload: str, args) -> tuple[dict, dict]:
    """One workload's paired runs; returns its entry and one run record per side."""
    values = {side: {m["name"]: [] for m in metrics} for side in SIDES}
    passes = {side: [0, 0] for side in SIDES}  # failed, attempted
    records = {}
    for k in range(args.pairs):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            record, result = run(trees[side], workload, args.seed + k, args.seconds, 0)
            records[side] = record
            passes[side][0] += result["failed"]
            passes[side][1] += result["attempted"]
            for name in values[side]:
                values[side][name].append(result["metrics"][name]["value"])
            print(f"{workload} pair {k} {side}: " + ", ".join(
                f"{name} {vals[-1]:.4g}" for name, vals in values[side].items()), flush=True)
    entry = {"end_to_end": {}, "failed_frac": {
        side: failed / attempted for side, (failed, attempted) in passes.items()}}
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        parent, change = values["parent"][name], values["change"][name]
        entry["end_to_end"][name] = {
            "unit": m["unit"], "better": m["better"],
            "parent": summary(parent), "change": summary(change),
            "wins": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
            "pairs": args.pairs,
        }
    entry["traced"] = {}
    for side in SIDES:
        _, result = run(trees[side], workload, args.seed, args.seconds, 1)
        entry["traced"][side] = {k: v["value"] for k, v in result["metrics"].items()}
    return entry, records


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default="ladder-p2,ladder-p3,fine-p6")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": {"rev": git("rev-parse", args.parent)},
             "change": {"rev": git("rev-parse", "HEAD"),
                        "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench"))}}
    out = {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
           "sides": sides, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as tmp:
        trees = fresh_trees(args.parent, Path(tmp))
        for side, tree in trees.items():
            sides[side]["options"] = options(tree)
        for workload in args.workloads.split(","):
            entry, records = compare(trees, metrics, workload, args)
            out["workloads"][workload] = entry
            for side, record in records.items():
                sides[side].update({key: record[key] for key in (
                    "src_lines", "src_sha256", "python", "numpy", "scipy", "nproc")})
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for workload, entry in out["workloads"].items():
        for name, m in entry["end_to_end"].items():
            print(f"{workload:10s} {name:12s} parent {m['parent']['median']:.4g} "
                  f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}]  change "
                  f"{m['change']['median']:.4g} [{m['change']['q1']:.4g}, "
                  f"{m['change']['q3']:.4g}]  wins {m['wins']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
