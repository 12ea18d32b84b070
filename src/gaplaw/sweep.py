"""Delta sweeps, rate fits, and verdicts against the predicted blow-up laws.

A sweep runs, for each gap delta on a geometric ladder, a floating solve
(potential gap, gradient maxima, flux balance) and a tied solve (the flux
constant R_delta).  When p = 2 it also forms the three linear auxiliaries
of the Q functional, solving only what symmetry cannot give: v1 is always
solved; v2 is v1's mirror image (every `build_mesh` mesh has a mirror),
and v3 is the tied solve itself when that ran under odd fixed data (its
tied constant is then pinned at 0, v3's value on both particles), else
a prescribed solve.  The measured gap and gradient maximum
are then fit to power laws in delta and compared against the predictions

    gap ~ (R0/C_o)^(1/(p-1)) delta^(gamma/(p-1)),
    max|grad u| ~ gap/delta,

with R0 extrapolated from the tied ladder and (gamma, C_o) supplied by
the asymptotics module (never re-derived here).  Verdicts are finite-
delta surrogates for the limit statements: the acceptance band, the
deviation slack and the barrier coverage are engineering choices, fixed
as module constants (RATIO_BAND, DEVIATION_SLACK, BARRIER_COVERAGE; the
slope tolerance is `cli.SLOPE_TOL`), so every command that judges a
ladder judges it the same way.

Outputs: `sweep.csv` (fixed column schema), `report.json` (fits,
verdicts, extrapolation, and at p = 2 the Q report of each delta),
`fluxes.csv` (every boundary flux of every solve) and the gnuplot script
`plots.gp`.  Physics content is byte-deterministic for a fixed
config; the wall_ms timing column is the one intrinsically
nondeterministic field.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .asymptotics import AsymptoticPrediction
from .flux import (
    MIN_LADDER_POINTS,
    FluxReport,
    QReport,
    R0Estimate,
    estimate_r0,
    flux_report,
    q_functional,
    r_delta,
    sample_neck_flux,
)
from .geometry import (
    NECK_W_FRACTION,
    DomainSpec,
    GeometryError,
    NeckSpec,
    ParticlePair,
    barrier_flux_bound,
)
from .mesh import MeshError, MeshParams, build_mesh, require_real
from .solver import (
    DiscreteSolution,
    SolverConfig,
    grad_max,
    mirrored,
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

RATIO_BAND = (0.85, 1.15)  # criterion 6: the two smallest-delta ratios lie inside
DEVIATION_SLACK = 0.02  # allowed growth of |ratio - 1| from one delta to the next
BARRIER_COVERAGE = 0.95  # criterion 7: share of neck samples inside the sandwich
CLEARANCE = 1.0  # least distance from the particles to the outer circle at every delta
DELTA_RATIO = 0.5  # each delta of the ladder is half the one before


def _datum_table_factory(entries):
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"datum table entries must be a list of [theta, value] pairs, "
                         f"got {entries!r}")
    pts = []
    for k, entry in enumerate(entries):
        pair = isinstance(entry, (list, tuple)) and len(entry) == 2
        # abs(x) <= max and not math.isfinite(x), which overflows on an int
        # beyond the float range
        if not (pair and all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                             and abs(x) <= sys.float_info.max for x in entry)):
            raise ValueError(f"datum table entry {k} must be a [theta, value] pair of finite "
                             f"numbers, got {entry!r}")
        t, v = float(entry[0]), float(entry[1])
        pts.append((t % (2.0 * math.pi), v))
    pts.sort()
    thetas = np.array([t for t, _ in pts])
    vals = np.array([v for _, v in pts])

    def datum(x, y):
        th = np.arctan2(y, x) % (2.0 * math.pi)
        return np.interp(th, thetas, vals, period=2.0 * math.pi)

    return datum


@dataclass(frozen=True)
class SweepConfig:
    """Field-for-field mirror of the sweep JSON config: the experiment only.

    The delta ladder halves: delta_start * DELTA_RATIO^k for
    k = 0..delta_count-1.  `h_far` and `neck_layers`, the element layers
    across the gap at x = 0, are the MeshParams; the mesher draws no random
    numbers, so there is no mesh seed.  The neck window half-width is
    NECK_W_FRACTION * R.  `datum` is 'linear-y', 'quadratic', or a
    {'kind': 'table', 'entries': [[theta, value], ...]} dictionary.

    A sweep solves with the solver's constant Newton settings (see
    `gaplaw.solver.SolverConfig`).  The particles keep a distance of
    CLEARANCE from the outer circle.

    Construction validates the config before any mesh is built: a
    real-valued field that is not a real number (a bool included), an R
    that is not positive and finite, an unknown datum, a table datum with
    a key other than kind and entries, table entries that are not a list, a table entry that is not a [theta, value] pair of
    finite numbers (an integer beyond the float range included), p < 2,
    delta_start <= 0, a delta_count that is not an integer >= 1, a ladder
    whose smallest delta is not a positive normal float, an h_far that is
    not positive and finite, a neck_layers that is not an even integer
    >= 4 (the MeshParams checks), a non-finite R_out, or an R_out that
    leaves less than CLEARANCE around the particles at delta_start (the
    widest gap, so the whole ladder) raises ValueError naming the field.
    """

    R: float = 1.0
    R_out: float = 4.0
    p: float = 2.0
    datum: object = "linear-y"
    delta_start: float = 0.04
    delta_count: int = 5
    h_far: float = 0.3
    neck_layers: int = 4

    def __post_init__(self):
        require_real(self)
        if not 0.0 < self.R < math.inf:
            raise ValueError(f"R must be positive and finite, got {self.R}")
        if not 2.0 <= self.p < math.inf:
            raise ValueError(f"p must be finite and >= 2, got {self.p}")
        if not self.delta_start > 0.0:
            raise ValueError(f"delta_start must be positive, got {self.delta_start}")
        if not (isinstance(self.delta_count, numbers.Integral)
                and not isinstance(self.delta_count, bool) and self.delta_count >= 1):
            raise ValueError(f"delta_count must be an integer >= 1, got {self.delta_count!r}")
        smallest = self.delta_start * DELTA_RATIO ** (self.delta_count - 1)
        if not smallest >= sys.float_info.min:
            raise ValueError(
                f"delta_start={self.delta_start} and delta_count={self.delta_count} take the "
                f"smallest delta to {smallest!r}, below the smallest normal float"
            )
        try:
            self.mesh_params()  # checks h_far and neck_layers
        except MeshError as exc:
            raise ValueError(str(exc)) from exc
        try:
            self.domain(self.delta_start)  # also rejects an unknown datum
        except GeometryError as exc:
            raise ValueError(
                f"R_out={self.R_out} at delta_start={self.delta_start}: {exc}"
            ) from exc

    @property
    def deltas(self) -> tuple[float, ...]:
        return tuple(
            self.delta_start * DELTA_RATIO**k for k in range(self.delta_count)
        )

    @property
    def w(self) -> float:
        """Half-width of the neck window, a fixed fraction of R."""
        return NECK_W_FRACTION * self.R

    def datum_callable(self):
        if self.datum == "linear-y":
            return lambda x, y: y
        if self.datum == "quadratic":
            return lambda x, y: y + 0.5 * y * y / self.R_out
        if (isinstance(self.datum, dict) and self.datum.get("kind") == "table"
                and self.datum.get("entries")):
            unknown = set(self.datum) - {"kind", "entries"}
            if unknown:
                raise ValueError(f"unknown datum table keys {sorted(unknown, key=str)}")
            return _datum_table_factory(self.datum["entries"])
        raise ValueError(f"unknown datum {self.datum!r}")

    def domain(self, delta: float) -> DomainSpec:
        """The domain at gap delta; raises GeometryError when the particles
        come closer than CLEARANCE to the outer circle."""
        dom = DomainSpec(
            pair=ParticlePair(R=self.R, delta=delta),
            R_out=self.R_out,
            boundary_datum=self.datum_callable(),
        )
        if dom.boundary_margin < CLEARANCE:
            raise GeometryError(f"outer-boundary clearance {dom.boundary_margin:.6g} "
                                f"below required {CLEARANCE:.6g}")
        return dom

    def mesh_params(self) -> MeshParams:
        return MeshParams(h_far=self.h_far, neck_layers=self.neck_layers)

    def solver_config(self) -> SolverConfig:
        """A `SolverConfig`, which holds no settings; kept for callers that
        pass one to the solve functions."""
        return SolverConfig()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        if not isinstance(d, dict):
            raise ValueError(f"a SweepConfig must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown SweepConfig keys {sorted(unknown)}")
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

    def csv_row(self) -> str:
        return ",".join(fmt(getattr(self, name)) for name, (fmt, _) in _CSV_CODEC.items())


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """One record per ladder delta, floating + tied solves throughout.

    At p = 2 each record also carries the Q functional (`q_report`) of
    v1, v2, v3: v1 is solved, v2 is `mirrored(v1)`, and v3 is the tied
    solution when its parity under y -> -y is -1 (odd data fix the tied
    constant at 0, so the two problems have the same fixed values and
    unknowns); otherwise v3 is solved too.

    A failing delta leaves its exception, as "Type: message", in its
    record's `error` and the ladder goes on; no failure raises, not even
    one at every delta.
    """
    records: list[SweepRecord] = []
    params = config.mesh_params()
    for delta in config.deltas:
        rec = SweepRecord(delta=delta)
        t0 = time.perf_counter()
        try:
            dom = config.domain(delta)
            neck = NeckSpec(dom.pair, config.w)
            mesh = build_mesh(dom, params)
            fsol = solve_floating(mesh, p=config.p)
            tsol = solve_tied(mesh, p=config.p)
            frep = flux_report(fsol, neck)
            trep = flux_report(tsol, neck)
            rec.T1, rec.T2 = fsol.T1, fsol.T2
            rec.gap = fsol.gap
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
                v1 = solve_linear_aux(mesh, "v1")
                v2 = mirrored(v1)
                v3 = tsol if tsol.parity[0] == -1 else solve_linear_aux(mesh, "v3")
                rec.q_report = q_functional(v1, v2, v3)
        except Exception as exc:  # noqa: BLE001 - per-point fault isolation
            rec.error = f"{type(exc).__name__}: {exc}"
        rec.wall_ms = (time.perf_counter() - t0) * 1e3
        records.append(rec)
    return records


def _succeeded(records: list[SweepRecord]) -> list[SweepRecord]:
    """The records without an error, in decreasing delta: the ladder points
    every fit, verdict and output reads."""
    return sorted((r for r in records if r.error is None), key=lambda r: -r.delta)


# -----------------------------------------------------------------------------
# fits and verdicts
# -----------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Least-squares power law y = prefactor * delta^slope in log-log, and
    its deviations from the predicted slope and prefactor (the relative
    prefactor deviation is None when the predicted prefactor is 0)."""

    quantity: str
    slope: float
    prefactor: float
    residual: float
    n_points: int
    predicted_slope: float
    predicted_prefactor: float
    slope_deviation: float
    prefactor_deviation_rel: float | None = None


_QUANTITY_GETTERS = {
    "gap": lambda r: r.gap,
    "gradMax": lambda r: r.gradmax_all,
}


def fit_power_law(
    records: list[SweepRecord],
    quantity: str,
    prediction: AsymptoticPrediction,
) -> FitResult:
    """Fit y = A delta^s through the records for the chosen quantity and
    compare it with the prediction.

    Needs >= MIN_LADDER_POINTS records with positive values; raises listing the offending
    deltas otherwise.  The expected slope is gamma/(p-1) for the gap and
    gamma/(p-1) - 1 for the gradient maximum.
    """
    if quantity not in _QUANTITY_GETTERS:
        raise ValueError(f"unknown quantity {quantity!r}")
    get = _QUANTITY_GETTERS[quantity]
    ok = _succeeded(records)
    bad = [r.delta for r in ok if not (get(r) > 0.0)]
    if bad:
        raise ValueError(f"non-positive {quantity} at delta in {bad}")
    if len(ok) < MIN_LADDER_POINTS:
        raise ValueError(f"power-law fit needs >= {MIN_LADDER_POINTS} records, got {len(ok)}")
    x = np.log([r.delta for r in ok])
    y = np.log([get(r) for r in ok])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    slope, prefactor = float(slope), float(np.exp(intercept))
    pred_s = prediction.gap_exponent if quantity == "gap" else prediction.grad_exponent
    pred_a = prediction.gap_coefficient
    return FitResult(
        quantity=quantity,
        slope=slope,
        prefactor=prefactor,
        residual=resid,
        n_points=len(ok),
        predicted_slope=pred_s,
        predicted_prefactor=pred_a,
        slope_deviation=slope - pred_s,
        prefactor_deviation_rel=prefactor / pred_a - 1.0 if pred_a else None,
    )


@dataclass(frozen=True)
class TheoremVerdict:
    """Per-delta ratios gap^(p-1) delta^(-gamma) C_o / R0 and the verdict.

    PASS requires the two smallest-delta ratios inside RATIO_BAND and
    the deviation-from-1 sequence nonincreasing along the ladder: each
    deviation |ratio - 1| exceeds the one before by at most
    DEVIATION_SLACK, and the last one does not exceed the first.
    """

    deltas: tuple[float, ...]
    ratios: tuple[float, ...]
    in_band: tuple[bool, ...]
    deviations_decreasing: bool
    passed: bool


def verify_theorem(
    records: list[SweepRecord],
    r0: R0Estimate,
    prediction: AsymptoticPrediction,
) -> TheoremVerdict:
    """Check the gap law at finite delta against the extrapolated R0.

    Ratios use R0 from `r0` and gamma and C_o from the prediction, and
    store none of them; R0 <= 0 raises, directing the caller to swap
    particle labels.  The last deviation may not exceed the first
    (devs[-1] <= devs[0] + 1e-12).
    """
    if r0.R0 <= 0.0:
        raise ValueError(
            f"extrapolated R0={r0.R0} <= 0: swap particle labels (or flip the datum)"
        )
    ok = _succeeded(records)
    if len(ok) < 2:
        raise ValueError("need at least two successful ladder points")
    p, gamma, C_o = prediction.p, prediction.gamma, prediction.C_o
    ratios = tuple(
        (r.gap ** (p - 1.0)) * r.delta ** (-gamma) * C_o / r0.R0 for r in ok
    )
    lo, hi = RATIO_BAND
    in_band = tuple(lo <= rt <= hi for rt in ratios)
    devs = [abs(rt - 1.0) for rt in ratios]
    decreasing = all(
        devs[i + 1] <= devs[i] + DEVIATION_SLACK for i in range(len(devs) - 1)
    ) and devs[-1] <= devs[0] + 1e-12
    passed = bool(in_band[-1] and in_band[-2] and decreasing)
    return TheoremVerdict(
        deltas=tuple(r.delta for r in ok),
        ratios=ratios,
        in_band=in_band,
        deviations_decreasing=decreasing,
        passed=passed,
    )


@dataclass(frozen=True)
class BarrierVerdict:
    """Coverage of measured neck fluxes by the barrier sandwich: of the
    `n_samples` neck-arc samples, `n_inside` lie between the bounds of
    `barrier_flux_bound`, whose additive constant is `C_slack`; PASS at a
    coverage of at least BARRIER_COVERAGE."""

    n_samples: int
    n_inside: int
    coverage: float
    passed: bool
    C_slack: float


def verify_barrier(
    solution: DiscreteSolution,
    neck: NeckSpec,
    p: float,
) -> BarrierVerdict:
    """Fraction of neck-arc flux samples inside the sandwich bounds: a
    sample counts when lower <= measured <= upper, with no allowance for
    the discretization; PASS at a coverage of at least BARRIER_COVERAGE.

    The additive constant of the bounds is the measured far-field
    gradient maximum, the quantity it stands in for.  `p` must be the
    solution's exponent and, on a mesh of a `DomainSpec`, `neck.pair` its
    particle pair; a different value raises ValueError.
    """
    if solution.kind != "floating":
        raise ValueError("barrier verdict applies to floating solves")
    if p != solution.p:
        raise ValueError(f"p={p} differs from the solution's p={solution.p}")
    dom = solution.mesh.domain
    if isinstance(dom, DomainSpec) and dom.pair != neck.pair:
        raise ValueError(f"neck pair {neck.pair} differs from the solution's pair {dom.pair}")
    C_slack = grad_max(solution, "away", neck)[0]
    xs, measured = sample_neck_flux(solution, neck)
    lower, upper = barrier_flux_bound(xs, solution.T1, solution.T2, neck.pair, C_slack)
    inside = int(np.count_nonzero((lower <= measured) & (measured <= upper)))
    cov = inside / len(xs)
    return BarrierVerdict(
        n_samples=len(xs),
        n_inside=inside,
        coverage=cov,
        passed=cov >= BARRIER_COVERAGE,
        C_slack=float(C_slack),
    )


def r0_from_records(records: list[SweepRecord]) -> R0Estimate:
    """R0 extrapolation reusing the tied fluxes already in the records."""
    return estimate_r0([(r.delta, r.r_delta) for r in _succeeded(records)])


# -----------------------------------------------------------------------------
# persistence
# -----------------------------------------------------------------------------


def records_to_csv(records: list[SweepRecord]) -> str:
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for rec in _succeeded(records):
        out.write(rec.csv_row() + "\n")
    return out.getvalue()


def records_from_csv(text: str) -> list[SweepRecord]:
    """The records of a sweep.csv text.  Raises ValueError naming the line
    and the column of a value that does not parse or is not finite, or of
    a delta that is not positive (`records_to_csv` writes none of these:
    it skips the failed deltas)."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1].split(",") != list(CSV_COLUMNS):
        raise ValueError("not a sweep.csv file (unexpected header)")
    records = []
    for k, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"sweep.csv line {k} has {len(parts)} fields, "
                             f"expected {len(CSV_COLUMNS)}")
        values = {}
        for (name, (_, parse)), v in zip(_CSV_CODEC.items(), parts):
            try:
                values[name] = parse(v)
            except ValueError:
                raise ValueError(f"sweep.csv line {k}, column {name}: "
                                 f"{v!r} does not parse") from None
            if not math.isfinite(values[name]):
                raise ValueError(f"sweep.csv line {k}, column {name}: {v!r} is not finite")
            if name == "delta" and not values[name] > 0.0:
                raise ValueError(f"sweep.csv line {k}, column delta: {v!r} is not positive")
        records.append(SweepRecord(**values))
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


def emit_report(
    records: list[SweepRecord],
    fits: dict[str, FitResult],
    verdicts: dict,
    outdir,
    config: SweepConfig | None = None,
    r0: R0Estimate | None = None,
    prediction: AsymptoticPrediction | None = None,
) -> None:
    """Write sweep.csv, report.json, fluxes.csv (when some record carries
    flux reports) and, given both fits, plots.gp into outdir.

    report.json has a `q_functional` key (`QReport` fields by `repr(delta)`)
    only when some record carries a Q report.  All content except the
    timing column is reproducible byte-for-byte from the same inputs.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "sweep.csv").write_text(records_to_csv(records))

    flux_rows = []
    for rec in _succeeded(records):
        for rep in (rec.floating_reports, rec.tied_reports):
            if rep is not None:
                flux_rows.extend(rep.csv_rows(rec.delta))
    if flux_rows:
        (outdir / "fluxes.csv").write_text(
            "delta,kind,curve,flux\n" + "\n".join(flux_rows) + "\n"
        )

    report = {
        "config": config,
        "fits": fits,
        "verdicts": verdicts,
        "r0": r0,
        "prediction": prediction,
        "errors": {repr(r.delta): r.error for r in records if r.error is not None},
    }
    q_reports = {repr(r.delta): r.q_report for r in records if r.q_report is not None}
    if q_reports:
        report["q_functional"] = q_reports
    (outdir / "report.json").write_text(
        json.dumps(report, default=dataclasses.asdict, sort_keys=True, indent=2) + "\n"
    )

    gap_fit = fits.get("gap")
    gm_fit = fits.get("gradMax")
    if gap_fit and gm_fit:
        def pred_line(fit):
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
