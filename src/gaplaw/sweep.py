"""Delta sweeps, rate fits, and verdicts against the predicted blow-up laws.

A sweep runs, for each gap delta on a geometric ladder, a floating solve
(potential gap, gradient maxima, flux balance) and a tied solve (the flux
constant R_delta), plus the three linear auxiliaries when p = 2.  The
measured gap and gradient maximum are then fit to power laws in delta and
compared against the predictions

    gap ~ (R0/C_o)^(1/(p-1)) delta^(gamma/(p-1)),
    max|grad u| ~ gap/delta,

with R0 extrapolated from the tied ladder and (gamma, C_o) supplied by
the asymptotics module (never re-derived here).  Verdicts are finite-
delta surrogates for the limit statements: the acceptance band and slope
tolerances are engineering choices, all exposed in the config.

Outputs: `sweep.csv` (fixed column schema), `report.json` (fits,
verdicts, extrapolation), and plain plot scripts.  Physics content is
byte-deterministic for a fixed config; the wall_ms timing column is the
one intrinsically nondeterministic field.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import AsymptoticPrediction
from .flux import (
    FluxReport,
    QReport,
    R0Estimate,
    estimate_r0,
    flux_report,
    q_functional,
    r_delta,
    sample_neck_flux,
)
from .barriers import barrier_flux_bound
from .geometry import DIM, DomainSpec, GeometryError, NeckSpec, ParticlePair
from .mesh import MeshParams, build_mesh
from .solver import (
    DiscreteSolution,
    SolverConfig,
    grad_max,
    solve_floating,
    solve_linear_aux,
    solve_tied,
)

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "FitResult",
    "TheoremVerdict",
    "BarrierVerdict",
    "SweepError",
    "run_sweep",
    "fit_power_law",
    "verify_theorem",
    "verify_barrier",
    "emit_report",
    "records_to_csv",
    "records_from_csv",
    "r0_from_records",
]

CSV_COLUMNS = (
    "delta", "T1", "T2", "gap", "gradmax_all", "gradmax_neck", "gradmax_away",
    "r_delta", "flux_defect", "energy", "newton_iters", "wall_ms",
)
# sweep.csv column -> (format, parse); every column is a SweepRecord field
_CSV_CODEC = {name: (repr, float) for name in CSV_COLUMNS} | {"newton_iters": (str, int)}


class SweepError(RuntimeError):
    def __init__(self, message, failures=None):
        super().__init__(message)
        self.failures = failures or []


def _datum_table_factory(entries):
    pts = sorted((float(t) % (2.0 * math.pi), float(v)) for t, v in entries)
    thetas = np.array([t for t, _ in pts])
    vals = np.array([v for _, v in pts])

    def datum(x, y):
        th = np.arctan2(y, x) % (2.0 * math.pi)
        return np.interp(th, thetas, vals, period=2.0 * math.pi)

    return datum


@dataclass(frozen=True)
class SweepConfig:
    """Field-for-field mirror of the sweep JSON config.

    The delta ladder is geometric: delta_start * delta_ratio^k for
    k = 0..delta_count-1.  `h_neck_fraction` is the target neck cell size
    as a fraction of delta (the mesher keeps at least 4 layers across the
    gap).  `h_far`, `h_neck_fraction` and `strip_aspect` make up the
    MeshParams; the mesher draws no random numbers, so there is no mesh
    seed.  `datum` is 'linear-y', 'quadratic', or a {'kind': 'table',
    'entries': [[theta, value], ...]} dictionary.

    `newton_tol`, `max_iter`, `eps_scale` and `p_step` make up the
    SolverConfig; `newton_tol` is relative to the largest nodal flux
    magnitude of the solution at the target p.

    Construction validates the config before any mesh is built: R <= 0,
    an unknown datum, p < 2, delta_start <= 0, a delta_count that is not
    an integer >= 1, h_far <= 0, h_neck_fraction outside (0, 0.25], the
    solver values SolverConfig rejects (max_iter < 1, newton_tol outside
    (0, 1), eps_scale < 0, p_step <= 0), an R_out that leaves less than
    `clearance` around the particles at delta_start (the widest gap, so
    the whole ladder), or a neck_w outside (0, R) raises ValueError.
    """

    R: float = 1.0
    R_out: float = 4.0
    clearance: float = 1.0
    p: float = 2.0
    datum: object = "linear-y"
    delta_start: float = 0.04
    delta_ratio: float = 0.5
    delta_count: int = 5
    neck_w: float | None = None
    h_far: float = 0.3
    h_neck_fraction: float = 0.25
    strip_aspect: float = 1.4
    newton_tol: float = 1e-12
    max_iter: int = 80
    eps_scale: float = 1e-8
    p_step: float = 0.5
    ratio_band: tuple[float, float] = (0.85, 1.15)
    slope_tol: float = 0.1
    deviation_slack: float = 0.02

    def __post_init__(self):
        if not self.R > 0.0:
            raise ValueError(f"R must be positive, got {self.R}")
        if not self.p >= 2.0:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if not self.delta_start > 0.0:
            raise ValueError(f"delta_start must be positive, got {self.delta_start}")
        if not 0.0 < self.delta_ratio < 1.0:
            raise ValueError("delta ladder must be strictly decreasing")
        if not (isinstance(self.delta_count, numbers.Integral) and self.delta_count >= 1):
            raise ValueError(f"delta_count must be an integer >= 1, got {self.delta_count!r}")
        if not 0.0 < self.h_neck_fraction <= 0.25 + 1e-12:
            raise ValueError(
                f"h_neck_fraction must lie in (0, 0.25] to keep >= 4 layers across "
                f"the gap, got {self.h_neck_fraction}"
            )
        self.solver_config()  # rejects max_iter, newton_tol, eps_scale, p_step
        if not self.h_far > 0.0:
            raise ValueError(f"h_far must be positive, got {self.h_far}")
        try:
            pair = self.domain(self.delta_start).pair  # also rejects an unknown datum
        except GeometryError as exc:
            raise ValueError(
                f"R_out={self.R_out} at delta_start={self.delta_start}: {exc}"
            ) from exc
        try:
            NeckSpec(pair, self.w)
        except GeometryError as exc:
            raise ValueError(f"neck_w={self.neck_w}: {exc}") from exc

    @property
    def deltas(self) -> tuple[float, ...]:
        return tuple(
            self.delta_start * self.delta_ratio**k for k in range(self.delta_count)
        )

    @property
    def w(self) -> float:
        return self.neck_w if self.neck_w is not None else 0.25 * self.R

    def datum_callable(self):
        if self.datum == "linear-y":
            return lambda x, y: y
        if self.datum == "quadratic":
            return lambda x, y: y + 0.5 * y * y / self.R_out
        if (isinstance(self.datum, dict) and self.datum.get("kind") == "table"
                and self.datum.get("entries")):
            return _datum_table_factory(self.datum["entries"])
        raise ValueError(f"unknown datum {self.datum!r}")

    def domain(self, delta: float) -> DomainSpec:
        return DomainSpec(
            pair=ParticlePair(R=self.R, delta=delta),
            R_out=self.R_out,
            boundary_datum=self.datum_callable(),
            clearance=self.clearance,
        )

    def mesh_params(self) -> MeshParams:
        layers = max(4, int(math.ceil(1.0 / self.h_neck_fraction)))
        if layers % 2:
            layers += 1
        return MeshParams(
            h_far=self.h_far,
            neck_layers=layers,
            strip_aspect=self.strip_aspect,
        )

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            newton_tol=self.newton_tol,
            max_iter=self.max_iter,
            eps_scale=self.eps_scale,
            p_step=self.p_step,
        )

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["ratio_band"] = list(self.ratio_band)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown SweepConfig keys {sorted(unknown)}")
        d = dict(d)
        if "ratio_band" in d:
            d["ratio_band"] = tuple(d["ratio_band"])
        return cls(**d)

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        return cls.from_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


@dataclass
class SweepRecord:
    """Measured quantities of one ladder point."""

    delta: float
    T1: float = math.nan
    T2: float = math.nan
    gap: float = math.nan
    gradmax_all: float = math.nan
    gradmax_neck: float = math.nan
    gradmax_away: float = math.nan
    r_delta: float = math.nan
    flux_defect: float = math.nan
    energy: float = math.nan
    newton_iters: int = 0
    wall_ms: float = 0.0
    error: str | None = None
    q_report: QReport | None = field(default=None, repr=False)
    floating_reports: FluxReport | None = field(default=None, repr=False)
    tied_reports: FluxReport | None = field(default=None, repr=False)
    floating_solution: DiscreteSolution | None = field(default=None, repr=False)
    tied_solution: DiscreteSolution | None = field(default=None, repr=False)

    def csv_row(self) -> str:
        return ",".join(fmt(getattr(self, name)) for name, (fmt, _) in _CSV_CODEC.items())


def run_sweep(config: SweepConfig, keep_solutions: bool = False) -> list[SweepRecord]:
    """One record per ladder delta, floating + tied solves throughout.

    Individual ladder failures are recorded on the affected record
    (error field) without aborting; only an all-points failure raises.
    """
    records: list[SweepRecord] = []
    params = config.mesh_params()
    scfg = config.solver_config()
    failures = []
    for delta in config.deltas:
        rec = SweepRecord(delta=delta)
        t0 = time.perf_counter()
        try:
            dom = config.domain(delta)
            neck = NeckSpec(dom.pair, config.w)
            mesh = build_mesh(dom, params)
            fsol = solve_floating(mesh, p=config.p, config=scfg)
            tsol = solve_tied(mesh, p=config.p, config=scfg)
            frep = flux_report(fsol, neck)
            trep = flux_report(tsol, neck)
            rec.T1, rec.T2 = fsol.T1, fsol.T2
            rec.gap = fsol.T2 - fsol.T1
            rec.gradmax_all = grad_max(fsol, "all", neck)[0]
            rec.gradmax_neck = grad_max(fsol, "neck", neck)[0]
            rec.gradmax_away = grad_max(fsol, "away", neck)[0]
            rec.r_delta = r_delta(tsol)
            rec.flux_defect = max(
                frep.balance_defect_rel,
                trep.balance_defect_rel,
                max(frep.particle_defects_rel),
                trep.combined_defect_rel,
            )
            rec.energy = fsol.energy
            rec.newton_iters = fsol.newton_iters
            rec.floating_reports = frep
            rec.tied_reports = trep
            if config.p == 2.0:
                v1 = solve_linear_aux(mesh, "v1", config=scfg)
                v2 = solve_linear_aux(mesh, "v2", config=scfg)
                v3 = solve_linear_aux(mesh, "v3", config=scfg)
                rec.q_report = q_functional(v1, v2, v3)
            if keep_solutions:
                rec.floating_solution = fsol
                rec.tied_solution = tsol
        except Exception as exc:  # noqa: BLE001 - per-point fault isolation
            rec.error = f"{type(exc).__name__}: {exc}"
            failures.append((delta, rec.error))
        rec.wall_ms = (time.perf_counter() - t0) * 1e3
        records.append(rec)
    if failures and len(failures) == len(records):
        raise SweepError("every ladder point failed", failures)
    return records


# -----------------------------------------------------------------------------
# fits and verdicts
# -----------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Least-squares power law y = prefactor * delta^slope in log-log."""

    quantity: str
    slope: float
    prefactor: float
    residual: float
    n_points: int
    predicted_slope: float | None = None
    predicted_prefactor: float | None = None

    @property
    def slope_deviation(self) -> float | None:
        if self.predicted_slope is None:
            return None
        return self.slope - self.predicted_slope

    @property
    def prefactor_deviation_rel(self) -> float | None:
        if not self.predicted_prefactor:
            return None
        return self.prefactor / self.predicted_prefactor - 1.0

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "slope": self.slope,
            "prefactor": self.prefactor,
            "residual": self.residual,
            "n_points": self.n_points,
            "predicted_slope": self.predicted_slope,
            "predicted_prefactor": self.predicted_prefactor,
            "slope_deviation": self.slope_deviation,
            "prefactor_deviation_rel": self.prefactor_deviation_rel,
        }


_QUANTITY_GETTERS = {
    "gap": lambda r: r.gap,
    "gradMax": lambda r: r.gradmax_all,
}


def fit_power_law(
    records: list[SweepRecord],
    quantity: str = "gap",
    prediction: AsymptoticPrediction | None = None,
) -> FitResult:
    """Fit y = A delta^s through the records for the chosen quantity.

    Needs >= 3 records with positive values; raises listing the offending
    deltas otherwise.  With a prediction attached, the expected slope is
    gamma/(p-1) for the gap and gamma/(p-1) - 1 for the gradient maximum.
    """
    if quantity not in _QUANTITY_GETTERS:
        raise ValueError(f"unknown quantity {quantity!r}")
    get = _QUANTITY_GETTERS[quantity]
    ok = [r for r in records if r.error is None]
    bad = [r.delta for r in ok if not (get(r) > 0.0)]
    if bad:
        raise ValueError(f"non-positive {quantity} at delta in {bad}")
    if len(ok) < 3:
        raise ValueError(f"power-law fit needs >= 3 records, got {len(ok)}")
    x = np.log([r.delta for r in ok])
    y = np.log([get(r) for r in ok])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    pred_s = pred_a = None
    if prediction is not None and not prediction.log_case:
        pred_s = (
            prediction.gap_exponent if quantity == "gap" else prediction.grad_exponent
        )
        pred_a = prediction.gap_coefficient
    return FitResult(
        quantity=quantity,
        slope=float(slope),
        prefactor=float(np.exp(intercept)),
        residual=resid,
        n_points=len(ok),
        predicted_slope=pred_s,
        predicted_prefactor=pred_a,
    )


@dataclass(frozen=True)
class TheoremVerdict:
    """Per-delta ratios gap^(p-1) delta^(-gamma) C_o / R0 and the verdict.

    PASS requires the two smallest-delta ratios inside the band and the
    deviation-from-1 sequence nonincreasing along the ladder (up to the
    configured slack).
    """

    deltas: tuple[float, ...]
    ratios: tuple[float, ...]
    band: tuple[float, float]
    in_band: tuple[bool, ...]
    deviations_decreasing: bool
    passed: bool
    R0: float
    C_o: float
    gamma: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def verify_theorem(
    records: list[SweepRecord],
    r0: R0Estimate,
    prediction: AsymptoticPrediction,
    band: tuple[float, float] = (0.85, 1.15),
    deviation_slack: float = 0.02,
) -> TheoremVerdict:
    """Check the gap law at finite delta against the extrapolated R0.

    Ratios use gamma and C_o from the prediction (asymptotics module);
    R0 <= 0 raises, directing the caller to swap particle labels.
    """
    if r0.R0 <= 0.0:
        raise ValueError(
            f"extrapolated R0={r0.R0} <= 0: swap particle labels (or flip the datum)"
        )
    if prediction.log_case or prediction.gamma is None:
        raise ValueError("theorem verdict covers the power-law case only")
    ok = sorted((r for r in records if r.error is None), key=lambda r: -r.delta)
    if len(ok) < 2:
        raise ValueError("need at least two successful ladder points")
    gamma, C_o = prediction.gamma, prediction.C_o
    p = prediction.p
    ratios = tuple(
        (r.gap ** (p - 1.0)) * r.delta ** (-gamma) * C_o / r0.R0 for r in ok
    )
    in_band = tuple(band[0] <= rt <= band[1] for rt in ratios)
    devs = [abs(rt - 1.0) for rt in ratios]
    decreasing = all(
        devs[i + 1] <= devs[i] + deviation_slack for i in range(len(devs) - 1)
    ) and devs[-1] <= devs[0] + 1e-12
    passed = bool(in_band[-1] and in_band[-2] and decreasing)
    return TheoremVerdict(
        deltas=tuple(r.delta for r in ok),
        ratios=ratios,
        band=band,
        in_band=in_band,
        deviations_decreasing=decreasing,
        passed=passed,
        R0=r0.R0,
        C_o=C_o,
        gamma=gamma,
    )


@dataclass(frozen=True)
class BarrierVerdict:
    """Coverage of measured neck fluxes by the barrier sandwich."""

    n_samples: int
    n_inside: int
    coverage: float
    required: float
    passed: bool
    C_slack: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def verify_barrier(
    solution: DiscreteSolution,
    neck: NeckSpec,
    p: float,
    C_slack: float | None = None,
    required_coverage: float = 0.95,
) -> BarrierVerdict:
    """Fraction of neck-arc flux samples inside the sandwich bounds,
    inflated per sample by the observed discretization slack.

    C_slack defaults to the measured far-field gradient maximum, the
    quantity the additive constant of the bounds stands in for.
    """
    if solution.kind != "floating":
        raise ValueError("barrier verdict applies to floating solves")
    if C_slack is None:
        C_slack = grad_max(solution, "away", neck)[0]
    pair = neck.pair
    xs, measured, slack = sample_neck_flux(solution, neck)
    inside = 0
    for x, m, s in zip(xs, measured, slack):
        fb = barrier_flux_bound(
            float(x), solution.T1, solution.T2, pair, p=p, d=DIM, C_slack=C_slack
        )
        if fb.lower - s <= m <= fb.upper + s:
            inside += 1
    cov = inside / len(xs)
    return BarrierVerdict(
        n_samples=len(xs),
        n_inside=inside,
        coverage=cov,
        required=required_coverage,
        passed=cov >= required_coverage,
        C_slack=float(C_slack),
    )


def r0_from_records(records: list[SweepRecord], noise_tol: float = 0.25) -> R0Estimate:
    """R0 extrapolation reusing the tied fluxes already in the records."""
    ok = sorted((r for r in records if r.error is None), key=lambda r: -r.delta)
    return estimate_r0([(r.delta, r.r_delta) for r in ok], noise_tol)


# -----------------------------------------------------------------------------
# persistence
# -----------------------------------------------------------------------------


def records_to_csv(records: list[SweepRecord]) -> str:
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for rec in sorted(records, key=lambda r: -r.delta):
        if rec.error is not None:
            continue
        out.write(rec.csv_row() + "\n")
    return out.getvalue()


def records_from_csv(text: str) -> list[SweepRecord]:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].split(",") != list(CSV_COLUMNS):
        raise ValueError("not a sweep.csv file (unexpected header)")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"sweep.csv row has {len(parts)} fields, expected {len(CSV_COLUMNS)}")
        records.append(SweepRecord(**{
            name: parse(v) for (name, (_, parse)), v in zip(_CSV_CODEC.items(), parts)
        }))
    return records


_GNUPLOT_TEMPLATE = """\
# log-log blow-up curves; run: gnuplot plots.gp
set datafile separator ','
set logscale xy
set key left top
set xlabel 'delta'
set terminal pngcairo size 900,600
set output 'gap.png'
set ylabel 'T2 - T1'
plot 'sweep.csv' using 1:4 with points pt 7 title 'measured gap', \\
     {gap_a} * x**{gap_s} with lines title 'fit slope {gap_s}'{gap_pred}
set output 'gradmax.png'
set ylabel 'max |grad u|'
plot 'sweep.csv' using 1:5 with points pt 7 title 'measured gradmax', \\
     {gm_a} * x**{gm_s} with lines title 'fit slope {gm_s}'{gm_pred}
"""

_PYPLOT_TEMPLATE = """\
#!/usr/bin/env python3
# log-log blow-up curves; run: python3 plots.py (expects sweep.csv alongside)
import csv
import matplotlib.pyplot as plt

rows = list(csv.DictReader(open('sweep.csv')))
delta = [float(r['delta']) for r in rows]
for col, fname, fit_a, fit_s in [
    ('gap', 'gap.png', {gap_a}, {gap_s}),
    ('gradmax_all', 'gradmax.png', {gm_a}, {gm_s}),
]:
    y = [float(r[col]) for r in rows]
    plt.figure()
    plt.loglog(delta, y, 'o', label=col)
    plt.loglog(delta, [fit_a * d**fit_s for d in delta], '-',
               label=f'fit slope {{fit_s:.4g}}')
    plt.xlabel('delta'); plt.ylabel(col); plt.legend(); plt.grid(True, which='both')
    plt.savefig(fname, dpi=150)
"""


def emit_report(
    records: list[SweepRecord],
    fits: dict[str, FitResult],
    verdicts: dict,
    outdir,
    config: SweepConfig | None = None,
    r0: R0Estimate | None = None,
    prediction: AsymptoticPrediction | None = None,
) -> dict:
    """Write sweep.csv, report.json, and the plot scripts into outdir.

    Returns the written paths.  All content except the timing column is
    reproducible byte-for-byte from the same inputs.
    """
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}

    csv_text = records_to_csv(records)
    (outdir / "sweep.csv").write_text(csv_text)
    paths["csv"] = outdir / "sweep.csv"

    flux_rows = []
    for rec in sorted(records, key=lambda r: -r.delta):
        for rep in (rec.floating_reports, rec.tied_reports):
            if rep is not None:
                flux_rows.extend(rep.csv_rows(rec.delta))
    if flux_rows:
        (outdir / "fluxes.csv").write_text(
            "delta,kind,curve,flux\n" + "\n".join(flux_rows) + "\n"
        )
        paths["fluxes"] = outdir / "fluxes.csv"

    report = {
        "config": config.to_dict() if config else None,
        "fits": {k: f.to_dict() for k, f in fits.items()},
        "verdicts": {
            k: (v.to_dict() if hasattr(v, "to_dict") else v) for k, v in verdicts.items()
        },
        "r0": None if r0 is None else dataclasses.asdict(r0),
        "prediction": None
        if prediction is None
        else {
            "p": prediction.p,
            "d": prediction.d,
            "R": prediction.R,
            "R0": prediction.R0,
            "C_o": prediction.C_o,
            "gamma": prediction.gamma,
            "log_case": prediction.log_case,
            "gap_exponent": prediction.gap_exponent,
            "grad_exponent": prediction.grad_exponent,
            "gap_coefficient": prediction.gap_coefficient,
        },
        "errors": {repr(r.delta): r.error for r in records if r.error is not None},
    }
    (outdir / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n"
    )
    paths["report"] = outdir / "report.json"

    gap_fit = fits.get("gap")
    gm_fit = fits.get("gradMax")
    if gap_fit and gm_fit:
        def pred_line(fit):
            if fit.predicted_slope is None or fit.predicted_prefactor is None:
                return ""
            return (
                f", \\\n     {fit.predicted_prefactor!r} * x**{fit.predicted_slope!r} "
                f"with lines dt 2 title 'predicted slope {fit.predicted_slope!r}'"
            )

        gp = _GNUPLOT_TEMPLATE.format(
            gap_a=repr(gap_fit.prefactor), gap_s=repr(gap_fit.slope),
            gm_a=repr(gm_fit.prefactor), gm_s=repr(gm_fit.slope),
            gap_pred=pred_line(gap_fit), gm_pred=pred_line(gm_fit),
        )
        (outdir / "plots.gp").write_text(gp)
        py = _PYPLOT_TEMPLATE.format(
            gap_a=repr(gap_fit.prefactor), gap_s=repr(gap_fit.slope),
            gm_a=repr(gm_fit.prefactor), gm_s=repr(gm_fit.slope),
        )
        (outdir / "plots.py").write_text(py)
        paths["plots"] = outdir / "plots.gp"
    return paths
