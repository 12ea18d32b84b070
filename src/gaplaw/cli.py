"""Command-line interface.

Subcommands:

    constants --p P --d D --R R
        print the blow-up exponent, the delta -> 0 limit constant and the
        integer-p table constant, and their difference (d = 3 flags the
        known mismatch)
    solve --config FILE [--out DIR] [--kind KIND] [--delta D]
        one solve from a sweep config; writes solution.txt and flux.json
    sweep --config FILE --out DIR
        full ladder run of >= 3 delta: sweep.csv, fluxes.csv, report.json, plots.gp;
        when the analysis fails, all but plots.gp, with no fits or verdicts
    report --records FILE --p P --out DIR
        regenerate report.json and plots.gp from a sweep.csv and print the
        summary `sweep` prints

Exit codes: 0 when all verdicts pass (or none apply), 2 when a verdict
fails, 1 on execution errors.

`analyze` is the one analysis path: R0 extrapolation, C_o, the
prediction, the fits and the verdicts.  `sweep` and `report` both go
through it and print its numbers with `_summarize`.  It lives here, not
in `gaplaw.sweep`, and calls `r0_from_records`, `fit_power_law`,
`verify_theorem`, `asymptotics.c_o_quadrature` and `asymptotics.predict`
as names of this module, so that a caller can time each of them by
rebinding that name.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import asymptotics
from .flux import MIN_LADDER_POINTS, flux_report
from .geometry import DIM, NeckSpec
from .mesh import build_mesh
from .solver import save_solution_text, solve_floating, solve_prescribed, solve_tied
from .sweep import (
    SweepConfig,
    emit_report,
    fit_power_law,
    r0_from_records,
    records_from_csv,
    run_sweep,
    verify_theorem,
)

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2

QUANTITIES = ("gap", "gradMax")
SLOPE_TOL = 0.1  # largest |fitted - predicted| slope of the gap and gradient maximum


def _cmd_constants(args) -> int:
    rep = asymptotics.table_consistency_report(args.p, args.d, args.R)
    print(f"p = {args.p:g}, d = {args.d}, R = {args.R:g}")
    if rep.gamma is None:
        print("gamma: logarithmic case (gap law carries log(1/delta), no power)")
        print(f"limit log-coefficient (closed form, delta -> 0): {rep.log_coefficient!r}")
        print(f"tabulated closed form: {rep.table_log_value!r}")
    else:
        print(f"gamma: {rep.gamma!r}")
        print(f"limit constant (closed form, delta -> 0): {rep.limit_value!r}")
        if rep.table_value is not None:
            print(f"table constant (integer p): {rep.table_value!r}")
            print(f"difference: {rep.limit_value - rep.table_value!r}")
            if rep.ratio is not None:
                print(f"ratio limit/table: {rep.ratio!r}")
            if rep.table_general_row is not None:
                print(f"table general-p row: {rep.table_general_row!r}")
        else:
            print("table constant: none (non-integer p)")
    if rep.mismatch:
        print(f"MISMATCH FLAGGED: {rep.note}")
    return EXIT_PASS


def _cmd_solve(args) -> int:
    cfg = SweepConfig.from_json(Path(args.config).read_text())
    delta = args.delta if args.delta is not None else cfg.deltas[0]
    dom = cfg.domain(delta)
    mesh = build_mesh(dom, cfg.mesh_params())
    if args.kind == "floating":
        sol = solve_floating(mesh, p=cfg.p)
    elif args.kind == "tied":
        sol = solve_tied(mesh, p=cfg.p)
    else:
        sol = solve_prescribed(mesh, T1=args.T1, T2=args.T2, p=cfg.p)
    neck = NeckSpec(dom.pair, cfg.w)
    rep = flux_report(sol, neck)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_solution_text(sol, outdir / "solution.txt")
    flux_doc = {
        "kind": sol.kind,
        "p": sol.p,
        "delta": delta,
        "T1": sol.T1,
        "T2": sol.T2,
        "energy": sol.energy,
        **{f"flux_{curve}": val for curve, val in rep.curves().items()},
        "scale": rep.scale,
        "balance_defect_rel": rep.balance_defect_rel,
        "particle_defects_rel": list(rep.particle_defects_rel),
        "combined_defect_rel": rep.combined_defect_rel,
    }
    if sol.kind == "tied":
        flux_doc["r_delta"] = rep.flux_p2
    (outdir / "flux.json").write_text(
        json.dumps(flux_doc, sort_keys=True, indent=2) + "\n"
    )
    print(f"wrote {outdir / 'solution.txt'} and {outdir / 'flux.json'}")
    if sol.T1 is not None:
        print(f"T1 = {sol.T1!r}  T2 = {sol.T2!r}")
    return EXIT_PASS


def analyze(records, p: float, R: float = 1.0):
    """Sweep records -> (r0, prediction, fits, verdicts).

    R0 is extrapolated from the tied fluxes of the successful records,
    C_o and the predicted law (exponents and coefficient) come from
    `asymptotics`, and the verdicts apply the fixed tolerances
    (`sweep.RATIO_BAND`, `sweep.DEVIATION_SLACK` and SLOPE_TOL), so a
    ladder gets the same verdicts from every command.
    """
    r0 = r0_from_records(records)
    C_o = asymptotics.c_o_quadrature(p, DIM, R)
    pred = asymptotics.predict(p, DIM, R, r0.R0, C_o=C_o)
    fits = {q: fit_power_law(records, q, pred) for q in QUANTITIES}
    verdicts = {
        "theorem_ratio": verify_theorem(records, r0, pred),
        "gap_slope_ok": abs(fits["gap"].slope_deviation) <= SLOPE_TOL,
        "gradmax_slope_ok": abs(fits["gradMax"].slope_deviation) <= SLOPE_TOL,
    }
    return r0, pred, fits, verdicts


def _summarize(r0, pred, fits, verdicts) -> int:
    """Print R0, C_o, gamma, the ratios, both slopes with their predictions
    and the verdict; return the exit code of the verdict."""
    tv = verdicts["theorem_ratio"]
    print(f"R0 = {r0.R0!r}, C_o = {pred.C_o!r}, gamma = {pred.gamma!r}")
    print(f"ratios: {[round(x, 4) for x in tv.ratios]}")
    print(f"gap slope {fits['gap'].slope:.4f} (predicted {fits['gap'].predicted_slope})")
    print(f"gradmax slope {fits['gradMax'].slope:.4f} (predicted {fits['gradMax'].predicted_slope})")
    passed = all(v.passed if hasattr(v, "passed") else v for v in verdicts.values())
    print("verdict:", "PASS" if passed else "FAIL")
    return EXIT_PASS if passed else EXIT_FAIL


def _cmd_sweep(args) -> int:
    cfg = SweepConfig.from_json(Path(args.config).read_text())
    if cfg.delta_count < MIN_LADDER_POINTS:
        raise ValueError(f"a sweep needs delta_count >= {MIN_LADDER_POINTS} to fit its ladder, "
                         f"got {cfg.delta_count}")
    records = run_sweep(cfg)
    for rec in records:
        status = rec.error or "ok"
        print(f"delta={rec.delta:g}: gap={rec.gap:.6g} gradmax={rec.gradmax_all:.6g} [{status}]")
    try:
        r0, pred, fits, verdicts = analyze(records, cfg.p, cfg.R)
    except Exception:
        emit_report(records, {}, {}, args.out, config=cfg)
        raise
    emit_report(records, fits, verdicts, args.out, config=cfg, r0=r0, prediction=pred)
    return _summarize(r0, pred, fits, verdicts)


def _cmd_report(args) -> int:
    records = records_from_csv(Path(args.records).read_text())
    r0, pred, fits, verdicts = analyze(records, args.p, args.R)
    emit_report(records, fits, verdicts, args.out, config=None, r0=r0, prediction=pred)
    return _summarize(r0, pred, fits, verdicts)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gaplaw",
        description="two-disk p-Laplace blow-up laboratory",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="blow-up exponent and limit constants")
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--d", type=int, required=True, choices=(2, 3))
    c.add_argument("--R", type=float, default=1.0)
    c.set_defaults(func=_cmd_constants)

    s = sub.add_parser("solve", help="single solve from a sweep config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", default="out")
    s.add_argument("--kind", default="floating",
                   choices=("floating", "tied", "prescribed"))
    s.add_argument("--delta", type=float, default=None)
    s.add_argument("--T1", type=float, default=0.0)
    s.add_argument("--T2", type=float, default=0.0)
    s.set_defaults(func=_cmd_solve)

    w = sub.add_parser("sweep", help="full delta-ladder run with verdicts")
    w.add_argument("--config", required=True)
    w.add_argument("--out", required=True)
    w.set_defaults(func=_cmd_sweep)

    r = sub.add_parser("report", help="regenerate report from a sweep.csv")
    r.add_argument("--records", required=True)
    r.add_argument("--p", type=float, required=True)
    r.add_argument("--R", type=float, default=1.0)
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
