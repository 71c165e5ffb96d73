"""Engine scaling: grid evaluation wall time, task bytes, candidate racing.

Section 6.3's scaling worry is concrete — four nodes would mean "nearly
24000" models — and the engine's answer is fourfold: a reusable worker
pool shared across selections, a broadcast data plane that ships the
train/test bundle once instead of once per task, successive-halving
candidate racing that spends the full optimiser budget only on the
survivors, and lockstep HES fits that run a whole estate's smoothing
objectives as batched recursions. This bench measures all four:

* wall time of the same SARIMAX sweep on the serial executor and on
  process pools of 2 and 4 workers (pool spawn excluded via warm-up);
* serialized bytes per task, broadcast plane vs. the old ship-the-series
  tuples;
* racing vs. exhaustive wall-clock and full-budget fit counts, asserting
  the racing winner stays within 1 % of the exhaustive winner's RMSE;
* a restart's selection of many 1008 h HES keys in one serial estate
  report, lockstep against per-fit ``optimize.minimize``, asserting
  identical outcomes.

On a single-CPU host pools cannot win — the pool assertion is therefore
*correctness*, not speed: every executor must produce the identical
leaderboard. Results are also written machine-readable to
``benchmarks/output/BENCH_engine.json`` for CI trend tracking.

Set ``REPRO_REDUCED_GRID=1`` (the CI smoke mode) to shrink the series and
candidate sample so the whole bench finishes in well under a minute.
"""

import gc
import os
import statistics
import time
from unittest import mock

import numpy as np
import pytest

from repro.core import Frequency, TimeSeries
from repro.engine import PoolExecutor, SerialExecutor, serialized_size
from repro.engine.telemetry import RunTrace
from repro.models import ets, lbfgsb
from repro.reporting import Table
from repro.selection import AutoConfig, evaluate_grid, sarimax_grid
from repro.selection.grid import GRID_MAXITER, RacingPlan
from repro.service import EstatePlanner

from .conftest import write_bench_json

REDUCED = os.environ.get("REPRO_REDUCED_GRID", "") not in ("", "0")

N_WORKERS = (1, 2) if REDUCED else (1, 2, 4)

BENCH_JSON = "BENCH_engine.json"


@pytest.fixture(scope="module")
def workload():
    n = 500 if REDUCED else 1100
    rng = np.random.default_rng(7)
    t = np.arange(n)
    values = 50 + 0.02 * t + 8 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1, n)
    series = TimeSeries(values, Frequency.HOURLY, name="cpu")
    if REDUCED:
        train, test = series.split(n - 24)
        specs = sarimax_grid(24, max_lag=8)[::4]  # 44 specs
    else:
        train, test = series.train_test_split()
        # A 1-in-12 stratified sample of the 660 grid keeps every (d, D)
        # shape while the bench stays minutes-scale even at one worker.
        specs = sarimax_grid(24)[::12]
    return train, test, specs


def _timed_run(executor, train, test, specs, **kwargs):
    t0 = time.perf_counter()
    results = evaluate_grid(specs, train, test, executor=executor, **kwargs)
    return results, time.perf_counter() - t0


def test_engine_scaling(benchmark, workload):
    train, test, specs = workload
    benchmark(lambda: evaluate_grid(specs[:4], train, test))

    runs = {}
    for n in N_WORKERS:
        if n == 1:
            executor = SerialExecutor()
            runs[n] = _timed_run(executor, train, test, specs)
        else:
            with PoolExecutor(max_workers=n) as pool:
                evaluate_grid(specs[:2], train, test, executor=pool)  # warm the pool
                runs[n] = _timed_run(pool, train, test, specs)
                assert pool.pools_created == 1  # warm-up and run shared one pool

    serial_time = runs[1][1]
    table = Table(
        ["Workers", "Candidates", "Wall time (s)", "Speedup"],
        title="Engine scaling: SARIMAX grid evaluation",
    )
    for n in N_WORKERS:
        __, seconds = runs[n]
        table.add_row([str(n), str(len(specs)), seconds, f"{serial_time / seconds:.2f}x"])
    print()
    table.print()

    baseline = runs[1][0]
    for n in N_WORKERS[1:]:
        results, __ = runs[n]
        assert [r.spec for r in results] == [r.spec for r in baseline]
        assert np.allclose(
            [r.rmse for r in results if np.isfinite(r.rmse)],
            [r.rmse for r in baseline if np.isfinite(r.rmse)],
            rtol=1e-10,
        )

    write_bench_json(
        BENCH_JSON,
        "scaling",
        {
            "candidates": len(specs),
            "reduced_grid": REDUCED,
            "wall_seconds": {str(n): runs[n][1] for n in N_WORKERS},
            "speedup": {str(n): serial_time / runs[n][1] for n in N_WORKERS},
        },
    )


def test_task_bytes_broadcast_vs_inline(workload):
    """Per-task serialized bytes: broadcast refs vs. ship-the-series tuples."""
    train, test, specs = workload
    executor = SerialExecutor()
    ref = executor.broadcast((train, test, None, None))

    old_style = serialized_size((specs[0], train, test, None, None, GRID_MAXITER))
    new_style = serialized_size((specs[0], GRID_MAXITER, None, ref))
    sweep_old = old_style * len(specs)
    sweep_new = ref.nbytes + new_style * len(specs)

    table = Table(
        ["Plane", "Bytes/task", "Sweep total (KiB)"],
        title=f"Task serialization, {len(specs)}-candidate sweep",
    )
    table.add_row(["inline series (old)", str(old_style), f"{sweep_old / 1024:.1f}"])
    table.add_row(["broadcast ref (new)", str(new_style), f"{sweep_new / 1024:.1f}"])
    print()
    table.print()

    assert new_style < 1024  # O(spec), not O(series length)
    assert new_style * 10 < old_style

    write_bench_json(
        BENCH_JSON,
        "task_bytes",
        {
            "bytes_per_task_inline": old_style,
            "bytes_per_task_broadcast": new_style,
            "broadcast_payload_bytes": ref.nbytes,
            "sweep_bytes_inline": sweep_old,
            "sweep_bytes_broadcast": sweep_new,
        },
    )


def test_racing_vs_exhaustive(workload):
    """Racing must match the exhaustive winner within 1 % at >= 2x fewer
    full-budget fits — the Section 6.3 sweep without the Section 6.3 bill."""
    train, test, specs = workload
    executor = SerialExecutor()

    exhaustive, exhaustive_seconds = _timed_run(executor, train, test, specs)

    # Promote the top 40 % at a rung budget of 8: comfortably under the 2x
    # bound on full-budget fits even when the promotion count rounds up,
    # with ranking fidelity to spare on noisy series.
    plan = RacingPlan(eta=2.5, rung_maxiter=8)
    trace = RunTrace()
    raced, raced_seconds = _timed_run(
        executor, train, test, specs, trace=trace, racing=plan
    )

    full_fits = trace.counters["racing_full_fits"]
    pruned = trace.counters["candidates_pruned_by_racing"]
    table = Table(
        ["Protocol", "Full-budget fits", "Wall time (s)", "Winner RMSE"],
        title="Candidate racing vs exhaustive scoring",
    )
    table.add_row(
        ["exhaustive", str(len(specs)), exhaustive_seconds, f"{exhaustive[0].rmse:.4f}"]
    )
    table.add_row(["racing", str(full_fits), raced_seconds, f"{raced[0].rmse:.4f}"])
    print()
    table.print()

    assert raced[0].rmse <= exhaustive[0].rmse * 1.01
    assert full_fits * 2 <= len(specs)
    assert pruned > 0

    write_bench_json(
        BENCH_JSON,
        "racing",
        {
            "candidates": len(specs),
            "full_budget_fits": full_fits,
            "pruned_by_racing": pruned,
            "warm_start_hits": trace.counters.get("warm_start_hits", 0),
            "wall_seconds_exhaustive": exhaustive_seconds,
            "wall_seconds_racing": raced_seconds,
            "winner_rmse_exhaustive": exhaustive[0].rmse,
            "winner_rmse_racing": raced[0].rmse,
        },
    )


#: Keys in the restart-selection estate (the churn restart has 36).
RESTART_KEYS = 36 if REDUCED else 144


def _restart_histories(n_keys: int) -> list[TimeSeries]:
    """Seeded 1008 h histories: a daily cycle on a slowly wandering level."""
    rng = np.random.default_rng(1008)
    t = np.arange(1008)
    out = []
    for k in range(n_keys):
        level = rng.uniform(60.0, 75.0) + np.cumsum(rng.normal(0.0, 0.15, t.size))
        values = level + 8.0 * np.sin(2 * np.pi * t / 24) + rng.normal(0, rng.uniform(1, 2), t.size)
        out.append(TimeSeries(values, Frequency.HOURLY, name=f"tenant{k:03d}.cpu"))
    return out


def _restart_report(histories):
    planner = EstatePlanner(config=AutoConfig(technique="hes"))
    for k, series in enumerate(histories):
        planner.register("bench", f"tenant{k:03d}", "cpu", series, threshold=95.0)
    started = time.perf_counter()
    report = planner.report(executor=SerialExecutor())
    seconds = time.perf_counter() - started
    outcome = []
    for entry in report.entries:
        model = entry.outcome.model
        outcome.append((
            str(entry.key),
            entry.status.name,
            model.spec,
            np.array([entry.test_rmse, model.alpha, model.beta, model.gamma,
                      model.sigma2]).tobytes(),
            model.residuals.tobytes(),
            model.seasonal_state.tobytes(),
        ))
    return seconds, outcome


def _minimize_only():
    """Force the per-fit ``optimize.minimize`` path: the scipy check fails."""
    ets._lockstep_ok.cache_clear()
    return mock.patch.object(lbfgsb, "_setulb", None)


def test_estate_restart_selection():
    """A restart re-selects every key at once: the HES fits step in lockstep.

    Legs alternate (lockstep, then forced per-fit ``minimize``) three
    times with the garbage collector off, so both see the same stretch
    of the machine; every leg must produce identical outcomes.
    """
    histories = _restart_histories(RESTART_KEYS)
    lockstep, fallback = [], []
    reference = None
    gc.collect()
    gc.disable()
    try:
        for __ in range(3):
            seconds, outcome = _restart_report(histories)
            lockstep.append(seconds)
            with _minimize_only():
                seconds, fallback_outcome = _restart_report(histories)
            ets._lockstep_ok.cache_clear()
            fallback.append(seconds)
            reference = reference or outcome
            assert outcome == reference
            assert fallback_outcome == reference
    finally:
        gc.enable()

    seconds = statistics.median(lockstep)
    speedup = statistics.median(fallback) / seconds
    table = Table(
        ["Path", "Keys", "Median wall (s)", "Legs (s)"],
        title="Restart selection: serial estate report of HES keys",
    )
    table.add_row(["lockstep", str(RESTART_KEYS), seconds, " ".join(f"{x:.2f}" for x in lockstep)])
    table.add_row(["per-fit minimize", str(RESTART_KEYS), statistics.median(fallback),
                   " ".join(f"{x:.2f}" for x in fallback)])
    print()
    table.print()
    print(f"lockstep speedup {speedup:.2f}x")

    write_bench_json(
        BENCH_JSON,
        "restart_selection",
        {
            "keys": RESTART_KEYS,
            "reduced_grid": REDUCED,
            "seconds": seconds,
            "seconds_minimize": statistics.median(fallback),
            "lockstep_speedup": speedup,
        },
    )
