"""Shared fixtures and helpers for the benchmark harness.

Each ``bench_*.py`` regenerates one table or figure of the paper (see
DESIGN.md's experiment index). Benches print their paper-style tables to
stdout — run with ``-s`` to see them — and save figure data as CSV under
``benchmarks/output/``.

Scaling: the paper's full protocol evaluates 660+ SARIMAX candidates per
instance. By default the benches use the correlogram-pruned grids
(Section 6.3's own "tuning" shortcut) so a full run finishes in minutes;
set ``REPRO_FULL_GRID=1`` to evaluate the complete 660-model grids exactly
as in the paper.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core import TimeSeries, interpolate_missing
from repro.selection import (
    CandidateSpec,
    arima_grid,
    augmentation_specs,
    evaluate_grid,
    pruned_sarimax_grid,
    sarimax_grid,
    suggest_orders,
)
from repro.shocks import build_shock_calendar
from repro.workloads import generate_olap_run, generate_oltp_run

OUTPUT_DIR = Path(__file__).parent / "output"

FULL_GRID = os.environ.get("REPRO_FULL_GRID", "") not in ("", "0")

#: Worker processes for grid evaluation (0 = one per CPU).
N_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0"))


def output_path(name: str) -> str:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return str(OUTPUT_DIR / name)


def write_bench_json(name: str, section: str, payload: dict) -> None:
    """Merge ``payload`` into one section of ``benchmarks/output/<name>``.

    Merging, not replacing, lets two tests contribute to one section
    (the fast-path throughput and sparse-advance probes share
    ``ingest_fastpath``). ``check_regression.py`` reads these files.
    """
    path = Path(output_path(name))
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault(section, {}).update(payload)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def olap_run():
    """Experiment One traces, hourly-aggregated (cached per session)."""
    return generate_olap_run()


@pytest.fixture(scope="session")
def oltp_run():
    """Experiment Two traces, hourly-aggregated (cached per session)."""
    return generate_oltp_run()


def metric_series(run, instance: str, metric: str) -> TimeSeries:
    """One clean metric series out of a cluster run."""
    return interpolate_missing(getattr(run.instances[instance], metric))


def best_of_family(family: str, train, test, period: int = 24):
    """Find the RMSE-best model of one of the paper's three families.

    Families: ``"ARIMA"``, ``"SARIMAX"``, ``"SARIMAX FFT Exogenous"``.
    Uses the full Section 6.3 grids under ``REPRO_FULL_GRID=1``, else the
    correlogram-pruned equivalents.
    """
    suggestion = suggest_orders(train, period)
    if family == "ARIMA":
        if FULL_GRID:
            specs = arima_grid()
        else:
            specs = [
                s
                for s in arima_grid()
                if s.order[0] in suggestion.p_candidates
            ]
        return evaluate_grid(specs, train, test, n_jobs=N_JOBS)

    calendar = build_shock_calendar(train, period=period)
    shock_matrix = calendar.train_matrix() if calendar.n_columns else None
    shock_future = (
        calendar.future_matrix(len(test)) if calendar.n_columns else None
    )
    if FULL_GRID:
        base_specs = sarimax_grid(period)
    else:
        base_specs = pruned_sarimax_grid(train, period)
    results = evaluate_grid(
        base_specs,
        train,
        test,
        shock_matrix=shock_matrix,
        shock_future=shock_future,
        n_jobs=N_JOBS,
    )
    if family == "SARIMAX":
        return results

    best = next(r for r in results if not r.failed)
    aug = augmentation_specs(best.spec, calendar.n_columns, 168)
    aug = [s for s in aug if s.exog_columns <= calendar.n_columns]
    if not aug:  # no shocks found: Fourier-only augmentations
        aug = [
            CandidateSpec(
                order=best.spec.order,
                seasonal=best.spec.seasonal,
                fourier_periods=(168.0,),
                fourier_orders=(k,),
            )
            for k in (1, 2)
        ]
    aug_results = evaluate_grid(
        aug,
        train,
        test,
        shock_matrix=shock_matrix,
        shock_future=shock_future,
        n_jobs=1,
    )
    viable = [r for r in aug_results if not r.failed]
    # The augmentations are applied *on top of* the best SARIMAX (paper:
    # "added to the model with the best RMSE to see if it can be further
    # improved"), so the family's answer is the better of base and
    # augmented.
    return sorted(viable + [best], key=lambda r: r.rmse)
