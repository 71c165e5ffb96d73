"""Kernel throughput: compiled recursions vs the pre-PR per-timestep loops.

Every model family's optimiser objective bottoms out in a sequential
recursion; this bench times each extracted kernel against an inlined copy
of the numpy scalar-indexing loop it replaced and reports ns/observation
for every available backend. The acceptance contract:

* the **numpy** backend is no slower than the legacy loop on every
  kernel (it hoists per-step dispatch, so it is usually several times
  faster);
* the **numba** backend, when the ``perf`` extra is installed, is at
  least 3x faster than the legacy loop on the two optimiser-dominating
  kernels (the HES recursion and the TBATS filter). When numba is
  absent the numba metrics are recorded as ``null`` and the assertion is
  skipped — the fallback path is exactly what is being measured then.

Also records one end-to-end ``auto_select`` wall time on the active
backend, with the trace's kernel counters, so the JSON shows what the
kernels cost inside the real pipeline rather than in isolation.

Results land in ``benchmarks/output/BENCH_kernels.json``. Set
``REPRO_REDUCED_GRID=1`` (the CI smoke mode) for a seconds-scale run.
"""

import os
import time

import numpy as np
import pytest

from repro.core import Frequency, TimeSeries
from repro.models import kernels
from repro.reporting import Table
from repro.selection import AutoConfig, auto_select

from .conftest import write_bench_json

REDUCED = os.environ.get("REPRO_REDUCED_GRID", "") not in ("", "0")

BENCH_JSON = "BENCH_kernels.json"

#: Best-of-N timing repeats; min is robust to scheduler noise.
REPEATS = 3 if REDUCED else 7

#: The kernels whose wall time dominates optimiser objectives; these carry
#: the 3x numba acceptance bar.
OBJECTIVE_KERNELS = ("ets_recursion", "tbats_filter")


def _best_of(fn, *args, repeats: int | None = None) -> float:
    best = np.inf
    for __ in range(repeats if repeats is not None else REPEATS):
        started = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - started)
    return best


# ---------------------------------------------------------------------------
# Legacy loops: inlined copies of the pre-kernel per-timestep code, which
# iterated with scalar ndarray indexing and per-step temporaries.
# ---------------------------------------------------------------------------
def _legacy_ets_recursion(y, use_trend, seasonal_mode, period, alpha, beta, gamma, phi, level0, trend0, seasonal0):
    n = y.size
    level, trend = level0, trend0
    seas = seasonal0.copy()
    errors = np.empty(n)
    for t in range(n):
        damped = phi * trend if use_trend else 0.0
        s_idx = t % period
        if seasonal_mode == 1:
            fitted = level + damped + seas[s_idx]
        elif seasonal_mode == 2:
            fitted = (level + damped) * seas[s_idx]
        else:
            fitted = level + damped
        errors[t] = y[t] - fitted
        prev = level
        if seasonal_mode == 1:
            level = alpha * (y[t] - seas[s_idx]) + (1 - alpha) * (prev + damped)
            seas[s_idx] = gamma * (y[t] - prev - damped) + (1 - gamma) * seas[s_idx]
        elif seasonal_mode == 2:
            denom = seas[s_idx] if abs(seas[s_idx]) > 1e-12 else 1e-12
            level = alpha * (y[t] / denom) + (1 - alpha) * (prev + damped)
            base = prev + damped
            seas[s_idx] = gamma * (y[t] / (base if abs(base) > 1e-12 else 1e-12)) + (1 - gamma) * seas[s_idx]
        else:
            level = alpha * y[t] + (1 - alpha) * (prev + damped)
        if use_trend:
            trend = beta * (level - prev) + (1 - beta) * damped
    return errors, level, trend, seas


def _legacy_tbats_filter(y, alpha, beta, phi, use_trend, rot, gamma_vec, ar, ma, level0, trend0, z0, d0, e0):
    p, q = ar.size, ma.size
    level, trend = level0, trend0
    z = z0.copy()
    d_hist = d0.copy()
    e_hist = e0.copy()
    innovations = np.empty(y.size)
    for t in range(y.size):
        seasonal = float(np.sum(z.real)) if z.size else 0.0
        d_pred = float(ar @ d_hist) if p else 0.0
        if q:
            d_pred += float(ma @ e_hist)
        e = y[t] - (level + phi * trend + seasonal + d_pred)
        d = d_pred + e
        innovations[t] = e
        prev = level
        level = prev + phi * trend + alpha * d
        if use_trend:
            trend = phi * trend + beta * d
        if z.size:
            z = rot * z + gamma_vec * d
        if p:
            d_hist = np.roll(d_hist, 1)
            d_hist[0] = d
        if q:
            e_hist = np.roll(e_hist, 1)
            e_hist[0] = e
    return innovations, level, trend, z, d_hist, e_hist


def _legacy_kalman_filter(y, T, RRt, P0):
    m = T.shape[0]
    a = np.zeros(m)
    P = P0.copy()
    sum_sq = 0.0
    sum_logF = 0.0
    for t in range(y.size):
        F = P[0, 0]
        if not np.isfinite(F) or F <= 1e-300:
            return np.inf, np.inf, False
        v = y[t] - a[0]
        sum_sq += v * v / F
        sum_logF += np.log(F)
        K = P[:, 0] / F
        a = a + K * v
        P = P - np.outer(K, P[0, :])
        a = T @ a
        P = T @ P @ T.T + RRt
        P = 0.5 * (P + P.T)
    return sum_sq, sum_logF, True


def _legacy_arma_forecast(full_ar, ma_full, history, recent_e, c_star, horizon):
    L = full_ar.size - 1
    q_full = ma_full.size - 1
    mean = np.empty(horizon)
    buf = np.concatenate([history, mean])
    for h in range(horizon):
        acc = c_star
        for k in range(1, L + 1):
            acc -= full_ar[k] * buf[L + h - k]
        for j in range(h + 1, q_full + 1):
            idx = recent_e.size + h - j
            if 0 <= idx < recent_e.size:
                acc += ma_full[j] * recent_e[idx]
        buf[L + h] = acc
        mean[h] = acc
    return mean


def _legacy_bootstrap_deviations(psi, shocks):
    n_paths, horizon = shocks.shape
    deviations = np.empty((n_paths, horizon))
    for h in range(horizon):
        deviations[:, h] = shocks[:, : h + 1] @ psi[: h + 1][::-1]
    return deviations


def _legacy_ets_mul_paths(level0, trend0, seasonal0, alpha, beta, gamma, phi, use_trend, period, start_index, shocks):
    n_paths, horizon = shocks.shape
    sims = np.empty((n_paths, horizon))
    for i in range(n_paths):
        level, trend, seas = level0, trend0, seasonal0.copy()
        for h in range(horizon):
            damped = phi * trend if use_trend else 0.0
            s_idx = (start_index + h) % period
            value = (level + damped) * seas[s_idx] + shocks[i, h]
            prev = level
            denom = seas[s_idx] if abs(seas[s_idx]) > 1e-12 else 1e-12
            level = alpha * (value / denom) + (1 - alpha) * (prev + damped)
            base = prev + damped
            seas[s_idx] = gamma * (value / (base if abs(base) > 1e-12 else 1e-12)) + (1 - gamma) * seas[s_idx]
            if use_trend:
                trend = beta * (level - prev) + (1 - beta) * damped
            sims[i, h] = value
    return sims


def _legacy_tbats_paths(alpha, beta, phi, use_trend, rot, gamma_vec, ar, ma, level0, trend0, z0, d0, e0, shocks):
    n_paths, horizon = shocks.shape
    out = np.empty((n_paths, horizon))
    for i in range(n_paths):
        level, trend = level0, trend0
        z = z0.copy()
        d_hist = d0.copy()
        e_hist = e0.copy()
        for h in range(horizon):
            seasonal = float(np.sum(z.real)) if z.size else 0.0
            d_pred = float(ar @ d_hist) if ar.size else 0.0
            if ma.size:
                d_pred += float(ma @ e_hist)
            e = shocks[i, h]
            d = d_pred + e
            out[i, h] = level + phi * trend + seasonal + d
            prev = level
            level = prev + phi * trend + alpha * d
            if use_trend:
                trend = phi * trend + beta * d
            if z.size:
                z = rot * z + gamma_vec * d
            if ar.size:
                d_hist = np.roll(d_hist, 1)
                d_hist[0] = d
            if ma.size:
                e_hist = np.roll(e_hist, 1)
                e_hist[0] = e
    return out


# ---------------------------------------------------------------------------
# Workload builders: (legacy_callable, kernel_callable, n_observations)
# ---------------------------------------------------------------------------
def _cases() -> dict:
    n = 600 if REDUCED else 4000
    horizon = 60 if REDUCED else 200
    paths = 100 if REDUCED else 500
    rng = np.random.default_rng(42)
    t = np.arange(n)
    y = 50.0 + 0.02 * t + 8.0 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1.5, n)

    ets = (y, True, 1, 24, 0.3, 0.05, 0.1, 0.97, float(y[:24].mean()), 0.02,
           5.0 * np.sin(2 * np.pi * np.arange(24) / 24))

    k = 5
    lam = 2 * np.pi * np.arange(1, k + 1) / 24.0
    tbats = (y / 10.0, 0.12, 0.02, 0.97, True, np.exp(-1j * lam),
             np.full(k, 0.002 + 0.001j), np.array([0.3, 0.1]), np.array([0.2, 0.05]),
             float(y.mean() / 10.0), 0.01,
             rng.normal(0, 0.5, k) + 1j * rng.normal(0, 0.5, k),
             np.zeros(2), np.zeros(2))

    from repro.models.kalman import arma_state_space, stationary_initialisation

    T, R, __ = arma_state_space(np.array([0.6, -0.2]), np.array([0.3]))
    kal = (y - y.mean(), T, np.outer(R, R), stationary_initialisation(T, R))

    L = 26
    arma = (np.concatenate(([1.0], rng.uniform(-0.02, 0.02, L))),
            np.array([1.0, 0.4, 0.2]), rng.normal(50, 5, L),
            rng.normal(0, 1, 3), 1.1, horizon)

    psi = 0.8 ** np.arange(horizon)
    boot = (psi, rng.normal(0, 2.0, size=(paths, horizon)))

    mul_shocks = rng.normal(0, 1.0, size=(paths, horizon))
    mul = (55.0, 0.1, 1.0 + 0.3 * np.sin(2 * np.pi * np.arange(24) / 24),
           0.3, 0.1, 0.1, 0.97, True, 24, n, mul_shocks)

    tbats_sim = tbats[1:] + (rng.normal(0, 0.5, size=(paths, horizon)),)

    return {
        "ets_recursion": (_legacy_ets_recursion, kernels.ets_recursion, ets, n),
        "ets_mul_paths": (_legacy_ets_mul_paths, kernels.ets_mul_paths, mul, paths * horizon),
        "tbats_filter": (_legacy_tbats_filter, kernels.tbats_filter, tbats, n),
        "tbats_paths": (_legacy_tbats_paths, kernels.tbats_paths, tbats_sim, paths * horizon),
        "kalman_filter": (_legacy_kalman_filter, kernels.kalman_filter, kal, n),
        "arma_forecast": (_legacy_arma_forecast, kernels.arma_forecast, arma, horizon),
        "bootstrap_deviations": (_legacy_bootstrap_deviations, kernels.bootstrap_deviations, boot, paths * horizon),
    }


def test_kernel_throughput_vs_legacy_loops():
    cases = _cases()
    restore = kernels.active_backend()
    rows = {}
    try:
        for name, (legacy, kernel, args, n_obs) in cases.items():
            entry = {"n_obs": n_obs, "legacy_ns_per_obs": None,
                     "numpy_ns_per_obs": None, "numba_ns_per_obs": None}
            entry["legacy_ns_per_obs"] = _best_of(legacy, *args) / n_obs * 1e9
            for backend in kernels.available_backends():
                kernels.set_backend(backend)
                kernels.ensure_warm()  # JIT outside the timed region
                entry[f"{backend}_ns_per_obs"] = _best_of(kernel, *args) / n_obs * 1e9
            rows[name] = entry
    finally:
        kernels.set_backend(restore)
        kernels.ensure_warm()

    table = Table(
        ["Kernel", "n_obs", "legacy ns/obs", "numpy ns/obs", "numba ns/obs", "best speedup"],
        title=f"Kernel throughput (best of {REPEATS})",
    )
    for name, e in rows.items():
        candidates = [v for v in (e["numpy_ns_per_obs"], e["numba_ns_per_obs"]) if v]
        speedup = e["legacy_ns_per_obs"] / min(candidates)
        table.add_row([
            name, str(e["n_obs"]),
            f"{e['legacy_ns_per_obs']:.1f}", f"{e['numpy_ns_per_obs']:.1f}",
            "-" if e["numba_ns_per_obs"] is None else f"{e['numba_ns_per_obs']:.1f}",
            f"{speedup:.2f}x",
        ])
    print()
    table.print()

    write_bench_json(
        BENCH_JSON,
        "kernel_throughput",
        {"backend_default": restore, "numba_available": kernels.NUMBA_AVAILABLE,
         "repeats": REPEATS, "reduced": REDUCED, "kernels": rows},
    )

    # NumPy fallback must never regress below the loops it replaced
    # (10 % timing-noise allowance).
    for name, e in rows.items():
        assert e["numpy_ns_per_obs"] <= e["legacy_ns_per_obs"] * 1.10, name
    # The compiled backend carries the 3x bar on the optimiser kernels.
    if kernels.NUMBA_AVAILABLE:
        for name in OBJECTIVE_KERNELS:
            ratio = rows[name]["legacy_ns_per_obs"] / rows[name]["numba_ns_per_obs"]
            assert ratio >= 3.0, f"{name}: numba only {ratio:.2f}x vs legacy"


def test_batched_dispatch_amortisation():
    """Cohort dispatch: one (B, n) kernel call vs B per-key calls.

    The streaming scheduler rolls short blocks (a handful of closed
    windows) across hundreds of keys every tick, so the workload shape
    is many rows x few observations — exactly where per-call dispatch
    overhead dominates and the batched entry points earn their keep.
    The acceptance bar: >= 10x at batch 256 on the numpy backend.
    """
    n = 2  # a realistic incremental-roll block (1-2 closed windows), not a refit
    period = 24
    batches = (1, 64, 256)
    rng = np.random.default_rng(7)

    def _rows(B):
        y = 50.0 + rng.normal(0, 1.5, (B, n))
        alpha = rng.uniform(0.1, 0.5, B)
        beta = rng.uniform(0.01, 0.1, B)
        gamma = rng.uniform(0.05, 0.2, B)
        phi = rng.uniform(0.9, 0.99, B)
        level0 = rng.normal(50, 2, B)
        trend0 = rng.normal(0, 0.05, B)
        seasonal0 = rng.normal(0, 3, (B, period))
        return y, alpha, beta, gamma, phi, level0, trend0, seasonal0

    def _per_key(y, alpha, beta, gamma, phi, level0, trend0, seasonal0):
        for i in range(y.shape[0]):
            kernels.ets_recursion(
                y[i], True, 1, period, alpha[i], beta[i], gamma[i],
                phi[i], level0[i], trend0[i], seasonal0[i],
            )

    def _batched(y, alpha, beta, gamma, phi, level0, trend0, seasonal0):
        kernels.ets_recursion_batch(
            y, True, 1, period, alpha, beta, gamma, phi, level0, trend0, seasonal0
        )

    restore = kernels.active_backend()
    rows = {}
    try:
        kernels.set_backend("numpy")
        kernels.ensure_warm()
        for B in batches:
            args = _rows(B)
            # The whole sweep is sub-millisecond, so extra repeats cost
            # nothing and keep the 10x bar out of scheduler-noise range.
            per_key = _best_of(_per_key, *args, repeats=15)
            batched = _best_of(_batched, *args, repeats=15)
            n_obs = B * n
            rows[str(B)] = {
                "per_key_ns_per_obs": per_key / n_obs * 1e9,
                "batched_ns_per_obs": batched / n_obs * 1e9,
                "speedup": per_key / batched,
            }
    finally:
        kernels.set_backend(restore)
        kernels.ensure_warm()

    table = Table(
        ["Batch", "per-key ns/obs", "batched ns/obs", "speedup"],
        title=f"Cohort dispatch amortisation (ets_recursion, n={n}, numpy)",
    )
    for B in batches:
        e = rows[str(B)]
        table.add_row([
            str(B), f"{e['per_key_ns_per_obs']:.0f}",
            f"{e['batched_ns_per_obs']:.0f}", f"{e['speedup']:.1f}x",
        ])
    print()
    table.print()

    write_bench_json(
        BENCH_JSON,
        "batched_dispatch",
        {
            "kernel": "ets_recursion",
            "n_per_row": n,
            "reduced": REDUCED,
            "batches": rows,
            "speedup_256": rows["256"]["speedup"],
        },
    )

    # Batch-of-one must not pay for the batching machinery it bypasses.
    assert rows["1"]["batched_ns_per_obs"] <= rows["1"]["per_key_ns_per_obs"] * 2.0
    # The headline acceptance bar for the cohort scheduler.
    assert rows["256"]["speedup"] >= 10.0, rows["256"]


def test_auto_select_end_to_end_wall_time():
    n = 360 if REDUCED else 1100
    rng = np.random.default_rng(9)
    t = np.arange(n)
    values = 45.0 + 0.03 * t + 7.0 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1.2, n)
    series = TimeSeries(values, Frequency.HOURLY, name="cpu_busy")
    train, test = series.split(n - 24)
    config = AutoConfig(n_jobs=1, max_lag=4 if REDUCED else 8)

    started = time.perf_counter()
    outcome = auto_select(series, config=config, train=train, test=test)
    wall = time.perf_counter() - started
    assert np.isfinite(outcome.test_rmse)

    counters = outcome.trace.counters if outcome.trace else {}
    kernel_counters = {k: v for k, v in counters.items() if k.startswith("kernel_")}
    payload = {
        "backend": kernels.active_backend(),
        "wall_seconds": wall,
        "n_evaluated": outcome.n_evaluated,
        "technique": outcome.technique,
        "kernel_counters": kernel_counters,
    }
    write_bench_json(BENCH_JSON, "auto_select_end_to_end", payload)

    table = Table(
        ["Backend", "Wall (s)", "Candidates", "Kernel dispatches"],
        title="End-to-end auto_select",
    )
    dispatches = int(sum(v for k, v in kernel_counters.items() if k.endswith("_calls")))
    table.add_row([kernels.active_backend(), f"{wall:.2f}", str(outcome.n_evaluated), str(dispatches)])
    print()
    table.print()
    assert dispatches > 0  # the pipeline actually went through the kernels


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q", "-s"])
