#!/usr/bin/env python3
"""Run every workload and print its end-to-end metrics by name, with units.

    python3 perfbench/suite.py --seed 1 --seconds 30

Each workload runs untraced in its own process through run.py, so
peak_rss_mb is per workload.  failed_frac is failed passes over attempted
passes.  Per-layer metrics come from `run.py --trace 1` (see README.md).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().with_name("run.py")


def run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    child = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    lines = child.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args()
    ok = True
    for workload in WORKLOADS:
        record, result = run(workload, args.seed, args.seconds)
        ok &= result["correct"]
        print(f"{workload}  seed {args.seed}  inputs {json.dumps(record['inputs'])}")
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("failed_frac", record["failed_frac"],
                     f"fraction ({result['failed']} of {result['attempted']} passes)"))
        for name, value, unit in rows:
            print(f"  {name:22s} {value:14.6g} {unit}")
        for failure in record["failures"]:
            print(f"  FAILED pass {failure['pass']}: {failure['error']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
