import pytest

from gaplaw.cli import analyze
from gaplaw.sweep import SweepConfig, run_sweep


def run_benchmark(p: float):
    """Full pipeline on the default five-point ladder 0.04 -> 0.0025."""
    cfg = SweepConfig(p=p)
    records = run_sweep(cfg)
    r0, pred, fits, verdicts = analyze(records, cfg.p, cfg.R)
    return {
        "config": cfg,
        "records": records,
        "r0": r0,
        "prediction": pred,
        "fits": fits,
        "verdict": verdicts["theorem_ratio"],
    }


@pytest.fixture(scope="session")
def bench_p2():
    return run_benchmark(2.0)


@pytest.fixture(scope="session")
def bench_p3():
    return run_benchmark(3.0)
