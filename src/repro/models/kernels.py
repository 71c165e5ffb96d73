"""Compiled numeric kernels: the per-timestep recursions, at hardware speed.

Every model family in this package bottoms out in a sequential recursion
that L-BFGS evaluates hundreds of times per fit: the exponential-smoothing
error-correction pass (HES), the TBATS trigonometric filter, the exact-MLE
Kalman filter, and the forecast/bootstrap simulation paths. This module
extracts each of those loops into a pure function over plain ndarrays and
scalars with two interchangeable backends:

* ``numpy`` — the reference implementation. Recurrences that allow it are
  vectorized (bootstrap simulation is broadcast across all paths at once;
  the bootstrap band is one Toeplitz mat-mul); the inherently sequential
  filters run as tight scalar loops with all per-step dispatch (string
  compares, tiny-ndarray temporaries, ``np.roll``) hoisted out, which is
  already several times faster than the loops they replace.
* ``numba`` — optional ``@njit(cache=True)`` variants of the same
  functions. numba is **never** a hard dependency: it is the ``perf``
  extra in ``pyproject.toml``, and when it is absent (or fails to import)
  the numpy backend is used silently.

Backend selection happens once at import from ``REPRO_KERNEL_BACKEND``
(``auto`` | ``numpy`` | ``numba``; default ``auto`` = numba when
available) and can be switched at runtime with :func:`set_backend`.

Both backends implement identical arithmetic in identical order, so
results agree to the last ulp on finite inputs; the parity suite in
``tests/models/test_kernels.py`` enforces ≤1e-9 relative agreement
against inlined reference loops, identical grid winners, and identical
guard behaviour on non-finite input.

Every dispatch is counted and timed (:func:`stats_snapshot`), and
:func:`warm_compile` runs each active kernel once on tiny inputs so JIT
compilation cost is paid at pool-worker init, never inside a timed task
(:mod:`repro.engine.kernels` wires this into the executor layer).

Guard semantics: the scalar reference loops run on Python floats, where
overflow raises instead of yielding ``inf``. Each kernel catches that and
returns ``inf``-filled outputs, which is exactly what the numpy loops
they replaced produced — objective functions see a non-finite SSE either
way and apply their usual penalty.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

__all__ = [
    "KERNEL_NAMES",
    "BATCHED_KERNEL_NAMES",
    "NUMBA_AVAILABLE",
    "active_backend",
    "available_backends",
    "set_backend",
    "warm_compile",
    "ensure_warm",
    "is_warmed",
    "stats_snapshot",
    "ets_recursion",
    "ets_mul_paths",
    "tbats_filter",
    "tbats_paths",
    "kalman_filter",
    "arma_forecast",
    "bootstrap_deviations",
    "ets_recursion_batch",
    "ets_mul_paths_batch",
    "arma_forecast_batch",
]

BACKEND_ENV = "REPRO_KERNEL_BACKEND"

KERNEL_NAMES = (
    "ets_recursion",
    "ets_mul_paths",
    "tbats_filter",
    "tbats_paths",
    "kalman_filter",
    "arma_forecast",
    "bootstrap_deviations",
)

#: Structure-of-arrays variants: one ``(batch, …)`` state block advances
#: N independent keys through the same recursion in a single dispatch.
#: Only the recursions the serving loop runs per cohort have one: the
#: smoothing pass and its multiplicative-band simulation (HES cohorts)
#: and the difference-equation forecast (ARIMA/SARIMA cohorts).
BATCHED_KERNEL_NAMES = (
    "ets_recursion_batch",
    "ets_mul_paths_batch",
    "arma_forecast_batch",
)

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except Exception:  # ImportError, or a broken numba install
    NUMBA_AVAILABLE = False


# ---------------------------------------------------------------------------
# NumPy backend
# ---------------------------------------------------------------------------
def _ets_recursion_numpy(
    y, use_trend, seasonal_mode, period, alpha, beta, gamma, phi, level0, trend0, seasonal0
):
    """Error-correction smoothing pass; seasonal_mode 0=none, 1=add, 2=mul."""
    yl = y.tolist()
    n = len(yl)
    sl = seasonal0.tolist()
    level = level0
    trend = trend0
    errors = [0.0] * n
    one_a = 1.0 - alpha
    one_b = 1.0 - beta
    one_g = 1.0 - gamma
    try:
        if seasonal_mode == 0:
            for t in range(n):
                dt = phi * trend if use_trend else 0.0
                yt = yl[t]
                errors[t] = yt - (level + dt)
                prev = level
                level = alpha * yt + one_a * (prev + dt)
                if use_trend:
                    trend = beta * (level - prev) + one_b * dt
        elif seasonal_mode == 1:
            for t in range(n):
                dt = phi * trend if use_trend else 0.0
                s_idx = t % period
                s = sl[s_idx]
                yt = yl[t]
                errors[t] = yt - (level + dt + s)
                prev = level
                level = alpha * (yt - s) + one_a * (prev + dt)
                sl[s_idx] = gamma * (yt - prev - dt) + one_g * s
                if use_trend:
                    trend = beta * (level - prev) + one_b * dt
        else:
            for t in range(n):
                dt = phi * trend if use_trend else 0.0
                s_idx = t % period
                s = sl[s_idx]
                yt = yl[t]
                errors[t] = yt - (level + dt) * s
                prev = level
                denom = s if abs(s) > 1e-12 else 1e-12
                level = alpha * (yt / denom) + one_a * (prev + dt)
                base = prev + dt
                sl[s_idx] = gamma * (yt / (base if abs(base) > 1e-12 else 1e-12)) + one_g * s
                if use_trend:
                    trend = beta * (level - prev) + one_b * dt
    except OverflowError:
        # Python floats raise where ndarray arithmetic saturates to inf;
        # surface the same non-finite result the old numpy loop produced.
        return np.full(n, np.inf), math.inf, math.inf, np.full(len(sl), np.inf)
    return np.asarray(errors), level, trend, np.asarray(sl)


def _ets_mul_paths_numpy(
    level0, trend0, seasonal0, alpha, beta, gamma, phi, use_trend, period, start_index, shocks
):
    """Multiplicative-seasonal simulation, broadcast across all paths.

    The one-row case of :func:`_ets_mul_paths_batch_numpy`: elementwise
    operations give every row the same bits at any batch size.
    """
    return _ets_mul_paths_batch_numpy(
        np.array([level0]), np.array([trend0]), seasonal0[None, :],
        np.array([alpha]), np.array([beta]), np.array([gamma]), np.array([phi]),
        use_trend, period, np.array([start_index]), shocks[None, :, :],
    )[0]


def _tbats_filter_numpy(
    y, alpha, beta, phi, use_trend, rot, gamma_vec, ar, ma, level0, trend0, z0, d0, e0
):
    """One TBATS filtering pass; harmonic states as complex scalars."""
    yl = y.tolist()
    n = len(yl)
    k = z0.size
    p = ar.size
    q = ma.size
    rl = rot.tolist()
    gl = gamma_vec.tolist()
    zl = z0.tolist()
    arl = ar.tolist()
    mal = ma.tolist()
    dl = d0.tolist()
    el = e0.tolist()
    level = level0
    trend = trend0
    innov = [0.0] * n
    try:
        for t in range(n):
            seasonal = 0.0
            for i in range(k):
                seasonal += zl[i].real
            d_pred = 0.0
            for i in range(p):
                d_pred += arl[i] * dl[i]
            for i in range(q):
                d_pred += mal[i] * el[i]
            yt = yl[t]
            e = yt - (level + phi * trend + seasonal + d_pred)
            d = d_pred + e
            innov[t] = e
            prev = level
            level = prev + phi * trend + alpha * d
            if use_trend:
                trend = phi * trend + beta * d
            for i in range(k):
                zl[i] = rl[i] * zl[i] + gl[i] * d
            if p:
                dl.insert(0, d)
                dl.pop()
            if q:
                el.insert(0, e)
                el.pop()
    except OverflowError:
        return (
            np.full(n, np.inf),
            math.inf,
            math.inf,
            np.full(k, np.inf, dtype=complex),
            np.full(p, np.inf),
            np.full(q, np.inf),
        )
    return (
        np.asarray(innov),
        level,
        trend,
        np.asarray(zl, dtype=complex),
        np.asarray(dl),
        np.asarray(el),
    )


def _tbats_paths_numpy(
    alpha, beta, phi, use_trend, rot, gamma_vec, ar, ma, level0, trend0, z0, d0, e0, shocks
):
    """TBATS forward simulation, broadcast across all paths."""
    n_paths, horizon = shocks.shape
    k = z0.size
    p = ar.size
    q = ma.size
    level = np.full(n_paths, level0)
    trend = np.full(n_paths, trend0)
    z = np.tile(z0, (n_paths, 1))
    d_hist = np.tile(d0, (n_paths, 1))
    e_hist = np.tile(e0, (n_paths, 1))
    out = np.empty((n_paths, horizon))
    for h in range(horizon):
        seasonal = z.real.sum(axis=1) if k else 0.0
        d_pred = d_hist @ ar if p else np.zeros(n_paths)
        if q:
            d_pred = d_pred + e_hist @ ma
        e = shocks[:, h]
        d = d_pred + e
        out[:, h] = level + phi * trend + seasonal + d
        prev = level
        level = prev + phi * trend + alpha * d
        if use_trend:
            trend = phi * trend + beta * d
        if k:
            z = rot * z + d[:, None] * gamma_vec
        if p:
            d_hist = np.roll(d_hist, 1, axis=1)
            d_hist[:, 0] = d
        if q:
            e_hist = np.roll(e_hist, 1, axis=1)
            e_hist[:, 0] = e
    return out


def _kalman_filter_numpy(y, T, RRt, P0):
    """Concentrated Kalman pass; returns (sum v²/F, sum log F, ok)."""
    m = T.shape[0]
    yl = y.tolist()
    sum_sq = 0.0
    sum_logF = 0.0
    try:
        if m == 1:
            t00 = float(T[0, 0])
            rr = float(RRt[0, 0])
            P = float(P0[0, 0])
            a = 0.0
            for yt in yl:
                F = P
                if not (1e-300 < F < math.inf):
                    return math.inf, math.inf, False
                v = yt - a
                sum_sq += v * v / F
                sum_logF += math.log(F)
                K = P / F
                a = t00 * (a + K * v)
                P = t00 * (P - K * P) * t00 + rr
        elif m == 2:
            t00, t01 = float(T[0, 0]), float(T[0, 1])
            t10, t11 = float(T[1, 0]), float(T[1, 1])
            r00, r01 = float(RRt[0, 0]), float(RRt[0, 1])
            r10, r11 = float(RRt[1, 0]), float(RRt[1, 1])
            p00, p01 = float(P0[0, 0]), float(P0[0, 1])
            p10, p11 = float(P0[1, 0]), float(P0[1, 1])
            a0 = a1 = 0.0
            for yt in yl:
                F = p00
                if not (1e-300 < F < math.inf):
                    return math.inf, math.inf, False
                v = yt - a0
                sum_sq += v * v / F
                sum_logF += math.log(F)
                k0 = p00 / F
                k1 = p10 / F
                a0 += k0 * v
                a1 += k1 * v
                # P -= K (first row of P); computed from the pre-update row.
                r0, r1 = p00, p01
                p00 -= k0 * r0
                p01 -= k0 * r1
                p10 -= k1 * r0
                p11 -= k1 * r1
                a0, a1 = t00 * a0 + t01 * a1, t10 * a0 + t11 * a1
                tp00 = t00 * p00 + t01 * p10
                tp01 = t00 * p01 + t01 * p11
                tp10 = t10 * p00 + t11 * p10
                tp11 = t10 * p01 + t11 * p11
                q00 = tp00 * t00 + tp01 * t01 + r00
                q01 = tp00 * t10 + tp01 * t11 + r01
                q10 = tp10 * t00 + tp11 * t01 + r10
                q11 = tp10 * t10 + tp11 * t11 + r11
                p00 = q00
                p01 = 0.5 * (q01 + q10)
                p10 = p01
                p11 = q11
        else:
            a = np.zeros(m)
            P = P0.copy()
            for yt in yl:
                F = P[0, 0]
                if not (1e-300 < F < math.inf):
                    return math.inf, math.inf, False
                v = yt - a[0]
                sum_sq += v * v / F
                sum_logF += math.log(F)
                K = P[:, 0] / F
                a = a + K * v
                P = P - np.outer(K, P[0, :])
                a = T @ a
                P = T @ P @ T.T + RRt
                P = 0.5 * (P + P.T)
    except OverflowError:
        return math.inf, math.inf, False
    return sum_sq, sum_logF, True


def _arma_forecast_numpy(full_ar, ma_full, history, recent_e, c_star, horizon):
    """Iterated ARMA point forecast on the undifferenced scale.

    MA lags with a zero coefficient are skipped: adding their ``±0.0``
    products changes a running sum only when that sum is itself zero, and
    later terms then give the same result unless the step's value stays
    zero. So a forecast with a zero or non-finite value, or from
    non-finite innovations (whose zero product is NaN), runs again over
    every lag.
    """
    mal = ma_full.tolist()
    lags = range(1, len(mal))
    if np.isfinite(recent_e).all():
        mean = _arma_iterate(
            full_ar, mal, [j for j in lags if mal[j] != 0.0], history, recent_e, c_star, horizon
        )
        if np.isfinite(mean).all() and mean.all():
            return mean
    return _arma_iterate(full_ar, mal, lags, history, recent_e, c_star, horizon)


def _arma_iterate(full_ar, mal, lags, history, recent_e, c_star, horizon):
    """The difference equation over the MA lags ``lags`` (ascending)."""
    L = full_ar.size - 1
    n_e = recent_e.size
    buf = np.empty(L + horizon)
    if L:
        buf[:L] = history
    rev_ar = full_ar[:0:-1].copy()  # [ar_L, ..., ar_1]
    rel = recent_e.tolist()
    mean = np.empty(horizon)
    for h in range(horizon):
        acc = c_star
        if L:
            acc -= float(rev_ar @ buf[h : h + L])
        for j in lags:
            idx = n_e + h - j
            if 0 <= idx < n_e:
                acc += mal[j] * rel[idx]
        buf[L + h] = acc
        mean[h] = acc
    return mean


def _bootstrap_deviations_numpy(psi, shocks):
    """ψ-weight convolution of bootstrap shocks as one Toeplitz mat-mul."""
    horizon = psi.size
    weights = np.zeros((horizon, horizon))
    for i in range(horizon):
        weights[i, i:] = psi[: horizon - i]
    return shocks @ weights


# ---------------------------------------------------------------------------
# Batched (structure-of-arrays) NumPy backend
#
# Each batched kernel advances B independent series through the same
# per-timestep recursion as its per-key sibling, with the batch laid out
# as the leading axis (one (B, n) value block, (B,) parameter vectors,
# (B, m) state blocks). The time loop stays sequential; only the cross-key
# axis is vectorised, and every elementwise operation is written in the
# exact order of the per-key kernel so results are bit-identical.
#
# Two guarantees keep parity airtight:
#
# * ``B == 1`` delegates straight to the per-key implementation — the
#   per-key kernel *is* the batch-1 special case, not a reimplementation;
# * any row whose vectorised outputs contain a non-finite value is
#   recomputed through the per-key implementation and its outputs are
#   taken verbatim, so overflow handling (saturate vs. raise) can never
#   diverge between the two code paths.
#
# The multiplicative-path simulation is built the other way round: its
# per-key kernel is the batch kernel's one-row case. Every operation is
# elementwise, so a row's bits do not depend on the batch around it and
# neither guarantee needs code there.
#
# Reductions with backend-dependent summation order (the BLAS dot product
# in the ARMA kernel) are *not* vectorised across the batch: that kernel
# delegates per row, and batching only amortises the dispatch/validation
# overhead.
# ---------------------------------------------------------------------------
def _nonfinite_rows(*arrays) -> np.ndarray:
    """Boolean (B,) mask of rows with any non-finite output component."""
    bad = None
    for arr in arrays:
        arr = np.asarray(arr)
        row_bad = ~np.isfinite(arr.reshape(arr.shape[0], -1)).all(axis=1)
        bad = row_bad if bad is None else (bad | row_bad)
    return bad


def _guarded(x, out, big) -> None:
    """``out[:] = np.where(np.abs(x) > 1e-12, x, 1e-12)``, without temporaries."""
    np.abs(x, out=out)
    np.greater(out, 1e-12, out=big)
    out.fill(1e-12)
    np.copyto(out, x, where=big)


def _ets_recursion_batch_numpy(
    y, use_trend, seasonal_mode, period, alpha, beta, gamma, phi, level0, trend0, seasonal0
):
    """Batched smoothing pass: ``y`` is ``(B, n)``, parameters are ``(B,)``.

    ``use_trend`` / ``seasonal_mode`` / ``period`` are cohort-wide (shared
    by every row — that is what makes a cohort a cohort).
    """
    B, n = y.shape
    if B == 1:
        errors, level, trend, seas = _ets_recursion_numpy(
            y[0], use_trend, seasonal_mode, period,
            float(alpha[0]), float(beta[0]), float(gamma[0]), float(phi[0]),
            float(level0[0]), float(trend0[0]), seasonal0[0],
        )
        return (
            np.asarray(errors)[None, :],
            np.array([level]),
            np.array([trend]),
            np.asarray(seas)[None, :],
        )
    level = level0.astype(float).copy()
    trend = trend0.astype(float).copy()
    # Column-major working copies: the time loop reads/writes whole
    # timesteps, so keeping the batch axis contiguous per step roughly
    # halves the strided-access overhead. Transposes copy values without
    # touching them — results stay bit-identical.
    yT = np.ascontiguousarray(y.T)
    # Explicit copy, not ascontiguousarray: a size-1 trailing dim keeps a
    # transpose contiguous, which would alias (and corrupt) the caller's
    # state array when the loop writes seasT in place.
    seasT = seasonal0.T.copy()
    errorsT = np.empty((n, B))
    one_a = 1.0 - alpha
    one_b = 1.0 - beta
    one_g = 1.0 - gamma
    # Every step writes into preallocated (B,) buffers: the same
    # operations on the same operands in the same order as the scalar
    # loop, without a fresh temporary per operation. ``prev`` and
    # ``level`` swap buffers each step; ``ld`` is ``level + dt`` before
    # the update, which the scalar loop computes twice as ``prev + dt``.
    prev = np.empty(B)
    dt = np.zeros(B)  # stays 0.0 without a trend: x + 0.0 == x bit for bit
    ld = np.empty(B)
    tmp = np.empty(B)
    tmp2 = np.empty(B)
    if seasonal_mode == 2:
        guard = np.empty(B)
        big = np.empty(B, dtype=bool)
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(n):
            if use_trend:
                mul(phi, trend, out=dt)
            yt = yT[t]
            add(level, dt, out=ld)
            if seasonal_mode == 0:
                sub(yt, ld, out=errorsT[t])
                prev, level = level, prev
                mul(alpha, yt, out=tmp)
            else:
                s = seasT[t % period]  # a view: the update below writes it back
                if seasonal_mode == 1:
                    add(ld, s, out=tmp)
                    sub(yt, tmp, out=errorsT[t])
                    prev, level = level, prev
                    sub(yt, s, out=tmp)
                    mul(alpha, tmp, out=tmp)
                else:
                    mul(ld, s, out=tmp)
                    sub(yt, tmp, out=errorsT[t])
                    prev, level = level, prev
                    _guarded(s, guard, big)
                    div(yt, guard, out=tmp)
                    mul(alpha, tmp, out=tmp)
            mul(one_a, ld, out=tmp2)
            add(tmp, tmp2, out=level)
            if seasonal_mode == 1:
                sub(yt, prev, out=tmp)
                sub(tmp, dt, out=tmp)
                mul(gamma, tmp, out=tmp)
                mul(one_g, s, out=tmp2)
                add(tmp, tmp2, out=s)
            elif seasonal_mode == 2:
                _guarded(ld, guard, big)
                div(yt, guard, out=tmp)
                mul(gamma, tmp, out=tmp)
                mul(one_g, s, out=tmp2)
                add(tmp, tmp2, out=s)
            if use_trend:
                sub(level, prev, out=tmp)
                mul(beta, tmp, out=tmp)
                mul(one_b, dt, out=tmp2)
                add(tmp, tmp2, out=trend)
    errors = np.ascontiguousarray(errorsT.T)
    seas = np.ascontiguousarray(seasT.T)
    bad = _nonfinite_rows(errors, level[:, None], trend[:, None], seas)
    for b in np.flatnonzero(bad):
        e_b, l_b, t_b, s_b = _ets_recursion_numpy(
            y[b], use_trend, seasonal_mode, period,
            float(alpha[b]), float(beta[b]), float(gamma[b]), float(phi[b]),
            float(level0[b]), float(trend0[b]), seasonal0[b],
        )
        errors[b] = e_b
        level[b] = l_b
        trend[b] = t_b
        seas[b] = s_b
    return errors, level, trend, seas


def _ets_mul_paths_batch_numpy(
    level0, trend0, seasonal0, alpha, beta, gamma, phi, use_trend, period, start_index, shocks
):
    """Batched multiplicative-seasonal simulation: ``shocks`` is ``(B, P, H)``.

    No per-path copy of the seasonal state is kept. Step ``h`` reads
    entry ``(start + h) % m``. While ``h < m`` that entry is still the
    origin's, the same for every path, so it is one ``(B, 1)`` column.
    The value step ``h`` writes back is read again only at step
    ``h + m``, so written ``(B, P)`` rows are kept in a ring only when
    the horizon passes ``m``, and state no later step reads is not
    updated. Each step runs the per-path recursion's operations, in its
    order, into preallocated buffers.
    """
    B, n_paths, horizon = shocks.shape
    m = period
    sims = np.empty((B, n_paths, horizon))
    al = alpha[:, None]
    be = beta[:, None]
    ga = gamma[:, None]
    ph = phi[:, None]
    one_a = 1.0 - al
    one_g = 1.0 - ga
    one_b = 1.0 - be
    phase = (start_index[:, None] + np.arange(min(horizon, m))) % m
    origin = np.take_along_axis(seasonal0, phase, axis=1)
    origin_guard = np.where(np.abs(origin) > 1e-12, origin, 1e-12)
    ring = np.empty((min(m, horizon - m), B, n_paths)) if horizon > m else None
    level = np.repeat(level0[:, None], n_paths, axis=1)
    prev = np.empty((B, n_paths))
    if use_trend:
        trend = np.repeat(trend0[:, None], n_paths, axis=1)
        dt = np.empty((B, n_paths))
    else:
        dt = 0.0
    ld = np.empty((B, n_paths))  # level + dt, the per-path loop's prev + dt
    tmp = np.empty((B, n_paths))
    tmp2 = np.empty((B, n_paths))
    guard = np.empty((B, n_paths))
    big = np.empty((B, n_paths), dtype=bool)
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for h in range(horizon):
            if use_trend:
                mul(ph, trend, out=dt)
            add(level, dt, out=ld)
            if h < m:
                s = origin[:, h : h + 1]
                denom = origin_guard[:, h : h + 1]
            else:
                s = ring[h % m]
                _guarded(s, guard, big)
                denom = guard
            value = sims[:, :, h]
            mul(ld, s, out=value)
            add(value, shocks[:, :, h], out=value)
            if h == horizon - 1:
                break  # no later step reads the state
            div(value, denom, out=tmp)
            mul(al, tmp, out=tmp)
            prev, level = level, prev
            mul(one_a, ld, out=tmp2)
            add(tmp, tmp2, out=level)
            if h + m < horizon:
                _guarded(ld, guard, big)
                div(value, guard, out=tmp)
                mul(ga, tmp, out=tmp)
                mul(one_g, s, out=tmp2)
                add(tmp, tmp2, out=ring[h % m])  # s is consumed: it may be this row
            if use_trend:
                sub(level, prev, out=tmp)
                mul(be, tmp, out=tmp)
                mul(one_b, dt, out=tmp2)
                add(tmp, tmp2, out=trend)
    return sims


def _arma_forecast_batch_numpy(full_ar, ma_full, history, recent_e, c_star, horizon):
    """Batched ARMA forecast iteration: delegates per row (BLAS dot order)."""
    B = full_ar.shape[0]
    mean = np.empty((B, horizon))
    for b in range(B):
        mean[b] = _arma_forecast_numpy(
            full_ar[b], ma_full[b], history[b], recent_e[b], float(c_star[b]), horizon
        )
    return mean


_NUMPY_IMPLS = {
    "ets_recursion": _ets_recursion_numpy,
    "ets_mul_paths": _ets_mul_paths_numpy,
    "tbats_filter": _tbats_filter_numpy,
    "tbats_paths": _tbats_paths_numpy,
    "kalman_filter": _kalman_filter_numpy,
    "arma_forecast": _arma_forecast_numpy,
    "bootstrap_deviations": _bootstrap_deviations_numpy,
    "ets_recursion_batch": _ets_recursion_batch_numpy,
    "ets_mul_paths_batch": _ets_mul_paths_batch_numpy,
    "arma_forecast_batch": _arma_forecast_batch_numpy,
}


# ---------------------------------------------------------------------------
# numba backend (optional)
# ---------------------------------------------------------------------------
_NUMBA_IMPLS: dict = {}

if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba is installed

    @_njit(cache=True)
    def _ets_recursion_nb(
        y, use_trend, seasonal_mode, period, alpha, beta, gamma, phi, level0, trend0, seasonal0
    ):
        n = y.size
        seas = seasonal0.copy()
        errors = np.empty(n)
        level = level0
        trend = trend0
        for t in range(n):
            dt = phi * trend if use_trend else 0.0
            yt = y[t]
            if seasonal_mode == 1:
                s_idx = t % period
                s = seas[s_idx]
                errors[t] = yt - (level + dt + s)
                prev = level
                level = alpha * (yt - s) + (1.0 - alpha) * (prev + dt)
                seas[s_idx] = gamma * (yt - prev - dt) + (1.0 - gamma) * s
            elif seasonal_mode == 2:
                s_idx = t % period
                s = seas[s_idx]
                errors[t] = yt - (level + dt) * s
                prev = level
                denom = s if abs(s) > 1e-12 else 1e-12
                level = alpha * (yt / denom) + (1.0 - alpha) * (prev + dt)
                base = prev + dt
                if abs(base) <= 1e-12:
                    base = 1e-12
                seas[s_idx] = gamma * (yt / base) + (1.0 - gamma) * s
            else:
                errors[t] = yt - (level + dt)
                prev = level
                level = alpha * yt + (1.0 - alpha) * (prev + dt)
            if use_trend:
                trend = beta * (level - prev) + (1.0 - beta) * dt
        return errors, level, trend, seas

    @_njit(cache=True)
    def _ets_mul_paths_nb(
        level0, trend0, seasonal0, alpha, beta, gamma, phi, use_trend, period, start_index, shocks
    ):
        n_paths, horizon = shocks.shape
        sims = np.empty((n_paths, horizon))
        for i in range(n_paths):
            level = level0
            trend = trend0
            seas = seasonal0.copy()
            for h in range(horizon):
                dt = phi * trend if use_trend else 0.0
                s_idx = (start_index + h) % period
                s = seas[s_idx]
                value = (level + dt) * s + shocks[i, h]
                prev = level
                denom = s if abs(s) > 1e-12 else 1e-12
                level = alpha * (value / denom) + (1.0 - alpha) * (prev + dt)
                base = prev + dt
                if abs(base) <= 1e-12:
                    base = 1e-12
                seas[s_idx] = gamma * (value / base) + (1.0 - gamma) * s
                if use_trend:
                    trend = beta * (level - prev) + (1.0 - beta) * dt
                sims[i, h] = value
        return sims

    @_njit(cache=True)
    def _tbats_filter_nb(
        y, alpha, beta, phi, use_trend, rot, gamma_vec, ar, ma, level0, trend0, z0, d0, e0
    ):
        n = y.size
        k = z0.size
        p = ar.size
        q = ma.size
        z = z0.copy()
        d_hist = d0.copy()
        e_hist = e0.copy()
        level = level0
        trend = trend0
        innov = np.empty(n)
        for t in range(n):
            seasonal = 0.0
            for i in range(k):
                seasonal += z[i].real
            d_pred = 0.0
            for i in range(p):
                d_pred += ar[i] * d_hist[i]
            for i in range(q):
                d_pred += ma[i] * e_hist[i]
            e = y[t] - (level + phi * trend + seasonal + d_pred)
            d = d_pred + e
            innov[t] = e
            prev = level
            level = prev + phi * trend + alpha * d
            if use_trend:
                trend = phi * trend + beta * d
            for i in range(k):
                z[i] = rot[i] * z[i] + gamma_vec[i] * d
            for i in range(p - 1, 0, -1):
                d_hist[i] = d_hist[i - 1]
            if p:
                d_hist[0] = d
            for i in range(q - 1, 0, -1):
                e_hist[i] = e_hist[i - 1]
            if q:
                e_hist[0] = e
        return innov, level, trend, z, d_hist, e_hist

    @_njit(cache=True)
    def _tbats_paths_nb(
        alpha, beta, phi, use_trend, rot, gamma_vec, ar, ma, level0, trend0, z0, d0, e0, shocks
    ):
        n_paths, horizon = shocks.shape
        k = z0.size
        p = ar.size
        q = ma.size
        out = np.empty((n_paths, horizon))
        for i in range(n_paths):
            level = level0
            trend = trend0
            z = z0.copy()
            d_hist = d0.copy()
            e_hist = e0.copy()
            for h in range(horizon):
                seasonal = 0.0
                for j in range(k):
                    seasonal += z[j].real
                d_pred = 0.0
                for j in range(p):
                    d_pred += ar[j] * d_hist[j]
                for j in range(q):
                    d_pred += ma[j] * e_hist[j]
                e = shocks[i, h]
                d = d_pred + e
                out[i, h] = level + phi * trend + seasonal + d
                prev = level
                level = prev + phi * trend + alpha * d
                if use_trend:
                    trend = phi * trend + beta * d
                for j in range(k):
                    z[j] = rot[j] * z[j] + gamma_vec[j] * d
                for j in range(p - 1, 0, -1):
                    d_hist[j] = d_hist[j - 1]
                if p:
                    d_hist[0] = d
                for j in range(q - 1, 0, -1):
                    e_hist[j] = e_hist[j - 1]
                if q:
                    e_hist[0] = e
        return out

    @_njit(cache=True)
    def _kalman_filter_nb(y, T, RRt, P0):
        n = y.size
        m = T.shape[0]
        a = np.zeros(m)
        P = P0.copy()
        K = np.empty(m)
        row = np.empty(m)
        na = np.empty(m)
        TP = np.empty((m, m))
        sum_sq = 0.0
        sum_logF = 0.0
        for t in range(n):
            F = P[0, 0]
            if not (1e-300 < F < np.inf):
                return np.inf, np.inf, False
            v = y[t] - a[0]
            sum_sq += v * v / F
            sum_logF += math.log(F)
            for i in range(m):
                K[i] = P[i, 0] / F
                row[i] = P[0, i]
            for i in range(m):
                a[i] += K[i] * v
                for j in range(m):
                    P[i, j] -= K[i] * row[j]
            for i in range(m):
                acc = 0.0
                for j in range(m):
                    acc += T[i, j] * a[j]
                na[i] = acc
            for i in range(m):
                a[i] = na[i]
            for i in range(m):
                for j in range(m):
                    acc = 0.0
                    for r in range(m):
                        acc += T[i, r] * P[r, j]
                    TP[i, j] = acc
            for i in range(m):
                for j in range(m):
                    acc = 0.0
                    for r in range(m):
                        acc += TP[i, r] * T[j, r]
                    P[i, j] = acc + RRt[i, j]
            for i in range(m):
                for j in range(i, m):
                    s = 0.5 * (P[i, j] + P[j, i])
                    P[i, j] = s
                    P[j, i] = s
        return sum_sq, sum_logF, True

    @_njit(cache=True)
    def _arma_forecast_nb(full_ar, ma_full, history, recent_e, c_star, horizon):
        L = full_ar.size - 1
        q_full = ma_full.size - 1
        n_e = recent_e.size
        buf = np.empty(L + horizon)
        for i in range(L):
            buf[i] = history[i]
        mean = np.empty(horizon)
        for h in range(horizon):
            acc = c_star
            for k in range(1, L + 1):
                acc -= full_ar[k] * buf[L + h - k]
            for j in range(h + 1, q_full + 1):
                idx = n_e + h - j
                if 0 <= idx < n_e:
                    acc += ma_full[j] * recent_e[idx]
            buf[L + h] = acc
            mean[h] = acc
        return mean

    @_njit(cache=True)
    def _bootstrap_deviations_nb(psi, shocks):
        n_paths, horizon = shocks.shape
        out = np.empty((n_paths, horizon))
        for i in range(n_paths):
            for h in range(horizon):
                acc = 0.0
                for j in range(h + 1):
                    acc += psi[h - j] * shocks[i, j]
                out[i, h] = acc
        return out

    # Batched numba leg: the compiled per-key kernel stays the unit of
    # work — a thin Python loop walks the batch axis and calls it per
    # row. That makes batch/per-key bit-identity true by construction on
    # this backend (identical machine code runs either way); the batch
    # call amortises the wrapper's validation/conversion/counter overhead,
    # which is the dominant per-call cost once the loops are compiled.
    def _ets_recursion_batch_nb(
        y, use_trend, seasonal_mode, period, alpha, beta, gamma, phi, level0, trend0, seasonal0
    ):
        y = np.ascontiguousarray(y)  # compiled per-key passes read rows
        B, n = y.shape
        errors = np.empty((B, n))
        level = np.empty(B)
        trend = np.empty(B)
        seas = np.empty_like(seasonal0)
        for b in range(B):
            e_b, l_b, t_b, s_b = _ets_recursion_nb(
                y[b], use_trend, seasonal_mode, period,
                alpha[b], beta[b], gamma[b], phi[b],
                level0[b], trend0[b], seasonal0[b],
            )
            errors[b] = e_b
            level[b] = l_b
            trend[b] = t_b
            seas[b] = s_b
        return errors, level, trend, seas

    def _ets_mul_paths_batch_nb(
        level0, trend0, seasonal0, alpha, beta, gamma, phi, use_trend, period, start_index, shocks
    ):
        B = shocks.shape[0]
        sims = np.empty_like(shocks)
        for b in range(B):
            sims[b] = _ets_mul_paths_nb(
                level0[b], trend0[b], seasonal0[b],
                alpha[b], beta[b], gamma[b], phi[b],
                use_trend, period, start_index[b], shocks[b],
            )
        return sims

    def _arma_forecast_batch_nb(full_ar, ma_full, history, recent_e, c_star, horizon):
        B = full_ar.shape[0]
        mean = np.empty((B, horizon))
        for b in range(B):
            mean[b] = _arma_forecast_nb(
                full_ar[b], ma_full[b], history[b], recent_e[b], c_star[b], horizon
            )
        return mean

    _NUMBA_IMPLS = {
        "ets_recursion": _ets_recursion_nb,
        "ets_mul_paths": _ets_mul_paths_nb,
        "tbats_filter": _tbats_filter_nb,
        "tbats_paths": _tbats_paths_nb,
        "kalman_filter": _kalman_filter_nb,
        "arma_forecast": _arma_forecast_nb,
        "bootstrap_deviations": _bootstrap_deviations_nb,
        "ets_recursion_batch": _ets_recursion_batch_nb,
        "ets_mul_paths_batch": _ets_mul_paths_batch_nb,
        "arma_forecast_batch": _arma_forecast_batch_nb,
    }


# ---------------------------------------------------------------------------
# Backend selection and instrumentation
# ---------------------------------------------------------------------------
def available_backends() -> tuple[str, ...]:
    return ("numpy", "numba") if NUMBA_AVAILABLE else ("numpy",)


def _resolve(requested: str) -> str:
    """Map a requested backend name onto an available one, gracefully."""
    name = (requested or "auto").strip().lower()
    if name == "numba" and not NUMBA_AVAILABLE:
        return "numpy"  # graceful: the perf extra simply is not installed
    if name in ("numpy", "numba"):
        return name
    # "auto" and anything unrecognised: best available.
    return "numba" if NUMBA_AVAILABLE else "numpy"


_ACTIVE_BACKEND = _resolve(os.environ.get(BACKEND_ENV, "auto"))
_IMPL = dict(_NUMBA_IMPLS if _ACTIVE_BACKEND == "numba" else _NUMPY_IMPLS)

_ALL_KERNEL_NAMES = KERNEL_NAMES + BATCHED_KERNEL_NAMES

_CALLS = {name: 0 for name in _ALL_KERNEL_NAMES}
_SECONDS = {name: 0.0 for name in _ALL_KERNEL_NAMES}
#: Batch-size dimension of the counters: total rows (keys) pushed through
#: each batched kernel. ``rows / calls`` is the mean cohort size.
_ROWS = {name: 0 for name in BATCHED_KERNEL_NAMES}
_WARM_RUNS = 0
_CALLS_BEFORE_WARM = 0
_WARMED = False


def active_backend() -> str:
    """The backend every kernel dispatches to (``"numpy"`` or ``"numba"``)."""
    return _ACTIVE_BACKEND


def set_backend(requested: str) -> str:
    """Switch backends at runtime; returns the effective backend.

    Requesting ``numba`` without numba installed falls back to ``numpy``
    (same graceful rule as the import-time env selection). Switching
    resets the warm flag — a fresh backend has fresh compilation state.
    """
    global _ACTIVE_BACKEND, _IMPL, _WARMED
    effective = _resolve(requested)
    if effective != _ACTIVE_BACKEND:
        _ACTIVE_BACKEND = effective
        _IMPL = dict(_NUMBA_IMPLS if effective == "numba" else _NUMPY_IMPLS)
        _WARMED = False
    return effective


def is_warmed() -> bool:
    return _WARMED


def warm_compile() -> int:
    """Run every active kernel once on tiny inputs; returns kernels warmed.

    For the numba backend this triggers (or loads from cache) the JIT
    compilation of every kernel, so the first real fit never pays it. For
    the numpy backend the calls cost microseconds and simply validate the
    dispatch table. Warm-up calls bypass the call/time counters.
    """
    global _WARMED, _WARM_RUNS
    y = np.array([1.0, 2.0, 1.5, 2.5])
    seasonal = np.array([0.5, -0.5])
    _IMPL["ets_recursion"](y, True, 1, 2, 0.3, 0.1, 0.1, 0.97, 1.0, 0.0, seasonal)
    _IMPL["ets_mul_paths"](
        1.0, 0.0, np.array([1.0, 1.0]), 0.3, 0.1, 0.1, 0.97, True, 2, 0, np.zeros((2, 3))
    )
    rot = np.exp(-1j * np.array([0.5]))
    gamma_vec = np.array([0.001 + 0.001j])
    arma = np.array([0.1])
    z0 = np.array([0.1 + 0.1j])
    hist = np.zeros(1)
    _IMPL["tbats_filter"](y, 0.1, 0.01, 0.98, True, rot, gamma_vec, arma, arma, 1.0, 0.0, z0, hist, hist)
    _IMPL["tbats_paths"](
        0.1, 0.01, 0.98, True, rot, gamma_vec, arma, arma, 1.0, 0.0, z0, hist, hist, np.zeros((2, 3))
    )
    T = np.array([[0.5, 1.0], [0.0, 0.0]])
    R = np.array([1.0, 0.3])
    RRt = np.outer(R, R)
    _IMPL["kalman_filter"](y, T, RRt, np.eye(2))
    _IMPL["arma_forecast"](np.array([1.0, -0.5]), np.array([1.0, 0.3]), np.array([1.0]), np.array([0.1]), 0.0, 3)
    _IMPL["bootstrap_deviations"](np.array([1.0, 0.5]), np.zeros((2, 2)))
    # Batched variants: a 2-row cohort exercises the vectorised path
    # (batch 1 delegates to the per-key kernels warmed above).
    two = np.array([0.0, 0.0])
    _IMPL["ets_recursion_batch"](
        np.vstack([y, y]), True, 1, 2,
        np.array([0.3, 0.2]), np.array([0.1, 0.1]), np.array([0.1, 0.1]),
        np.array([0.97, 0.97]), np.array([1.0, 1.0]), two, np.tile(seasonal, (2, 1)),
    )
    _IMPL["ets_mul_paths_batch"](
        np.array([1.0, 1.0]), two, np.ones((2, 2)),
        np.array([0.3, 0.2]), np.array([0.1, 0.1]), np.array([0.1, 0.1]),
        np.array([0.97, 0.97]), True, 2, np.array([0, 1]), np.zeros((2, 2, 3)),
    )
    _IMPL["arma_forecast_batch"](
        np.tile(np.array([1.0, -0.5]), (2, 1)), np.tile(np.array([1.0, 0.3]), (2, 1)),
        np.ones((2, 1)), np.full((2, 1), 0.1), two, 3,
    )
    _WARMED = True
    _WARM_RUNS += 1
    return len(_ALL_KERNEL_NAMES)


def ensure_warm() -> None:
    """Idempotent :func:`warm_compile` — the executor-layer entry point."""
    if not _WARMED:
        warm_compile()


def stats_snapshot() -> dict[str, float]:
    """Monotonic per-process kernel counters.

    Keys: ``kernel_<name>_calls``, ``kernel_<name>_us`` (dispatch time in
    microseconds), ``kernel_warm_runs`` and ``kernel_calls_before_warm``.
    Deltas between snapshots are what the engine folds into
    :class:`~repro.engine.telemetry.RunTrace` counters.
    """
    snap: dict[str, float] = {
        "kernel_warm_runs": float(_WARM_RUNS),
        "kernel_calls_before_warm": float(_CALLS_BEFORE_WARM),
    }
    for name in _ALL_KERNEL_NAMES:
        snap[f"kernel_{name}_calls"] = float(_CALLS[name])
        snap[f"kernel_{name}_us"] = _SECONDS[name] * 1e6
    for name in BATCHED_KERNEL_NAMES:
        snap[f"kernel_{name}_rows"] = float(_ROWS[name])
    return snap


def _reset_for_tests() -> None:
    """Zero all counters and the warm flag (test isolation only)."""
    global _WARM_RUNS, _CALLS_BEFORE_WARM, _WARMED
    for name in _ALL_KERNEL_NAMES:
        _CALLS[name] = 0
        _SECONDS[name] = 0.0
    for name in BATCHED_KERNEL_NAMES:
        _ROWS[name] = 0
    _WARM_RUNS = 0
    _CALLS_BEFORE_WARM = 0
    _WARMED = False


def _timed(name: str, args: tuple):
    global _CALLS_BEFORE_WARM
    if not _WARMED:
        _CALLS_BEFORE_WARM += 1
    started = time.perf_counter()
    out = _IMPL[name](*args)
    _SECONDS[name] += time.perf_counter() - started
    _CALLS[name] += 1
    return out


def _timed_batch(name: str, rows: int, args: tuple):
    """Like :func:`_timed`, but also accumulates the batch-size dimension."""
    out = _timed(name, args)
    _ROWS[name] += int(rows)
    return out


# ---------------------------------------------------------------------------
# Public kernels (instrumented dispatchers)
# ---------------------------------------------------------------------------
def ets_recursion(y, use_trend, seasonal_mode, period, alpha, beta, gamma, phi, level0, trend0, seasonal0):
    """Exponential-smoothing error-correction pass.

    Returns ``(errors, level, trend, seasonal_state)``. ``seasonal_mode``
    is 0 (none), 1 (additive) or 2 (multiplicative); ``use_trend`` gates
    the Holt trend update, with damping folded into ``phi``.
    """
    return _timed(
        "ets_recursion",
        (
            np.ascontiguousarray(y, dtype=np.float64),
            bool(use_trend),
            int(seasonal_mode),
            int(period),
            float(alpha),
            float(beta),
            float(gamma),
            float(phi),
            float(level0),
            float(trend0),
            np.ascontiguousarray(seasonal0, dtype=np.float64),
        ),
    )


def ets_mul_paths(level0, trend0, seasonal0, alpha, beta, gamma, phi, use_trend, period, start_index, shocks):
    """Simulate the multiplicative-seasonal recursion for all shock paths.

    ``shocks`` is ``(n_paths, horizon)`` of pre-drawn Gaussian innovations
    (drawing them outside the kernel keeps both backends on the identical
    random stream); returns the simulated values, same shape.
    """
    return _timed(
        "ets_mul_paths",
        (
            float(level0),
            float(trend0),
            np.ascontiguousarray(seasonal0, dtype=np.float64),
            float(alpha),
            float(beta),
            float(gamma),
            float(phi),
            bool(use_trend),
            int(period),
            int(start_index),
            np.ascontiguousarray(shocks, dtype=np.float64),
        ),
    )


def tbats_filter(y, alpha, beta, phi, use_trend, rot, gamma_vec, ar, ma, level0, trend0, z0, d0, e0):
    """One TBATS filtering pass (innovations form).

    Returns ``(innovations, level, trend, z, d_hist, e_hist)`` — the
    final state components mirror :class:`repro.models.tbats._State`.
    """
    return _timed(
        "tbats_filter",
        (
            np.ascontiguousarray(y, dtype=np.float64),
            float(alpha),
            float(beta),
            float(phi),
            bool(use_trend),
            np.ascontiguousarray(rot, dtype=np.complex128),
            np.ascontiguousarray(gamma_vec, dtype=np.complex128),
            np.ascontiguousarray(ar, dtype=np.float64),
            np.ascontiguousarray(ma, dtype=np.float64),
            float(level0),
            float(trend0),
            np.ascontiguousarray(z0, dtype=np.complex128),
            np.ascontiguousarray(d0, dtype=np.float64),
            np.ascontiguousarray(e0, dtype=np.float64),
        ),
    )


def tbats_paths(alpha, beta, phi, use_trend, rot, gamma_vec, ar, ma, level0, trend0, z0, d0, e0, shocks):
    """Simulate the fitted TBATS state space forward for all shock paths."""
    return _timed(
        "tbats_paths",
        (
            float(alpha),
            float(beta),
            float(phi),
            bool(use_trend),
            np.ascontiguousarray(rot, dtype=np.complex128),
            np.ascontiguousarray(gamma_vec, dtype=np.complex128),
            np.ascontiguousarray(ar, dtype=np.float64),
            np.ascontiguousarray(ma, dtype=np.float64),
            float(level0),
            float(trend0),
            np.ascontiguousarray(z0, dtype=np.complex128),
            np.ascontiguousarray(d0, dtype=np.float64),
            np.ascontiguousarray(e0, dtype=np.float64),
            np.ascontiguousarray(shocks, dtype=np.float64),
        ),
    )


def kalman_filter(y, T, RRt, P0):
    """Concentrated-likelihood Kalman pass for an ARMA state space.

    Returns ``(sum_sq, sum_logF, ok)`` with σ² concentrated out; ``ok``
    is False when the innovation variance left the finite/positive guard
    band, which the caller maps to a ``-inf`` log-likelihood.
    """
    return _timed(
        "kalman_filter",
        (
            np.ascontiguousarray(y, dtype=np.float64),
            np.ascontiguousarray(T, dtype=np.float64),
            np.ascontiguousarray(RRt, dtype=np.float64),
            np.ascontiguousarray(P0, dtype=np.float64),
        ),
    )


def arma_forecast(full_ar, ma_full, history, recent_e, c_star, horizon):
    """Iterate the expanded ARMA difference equation ``horizon`` steps."""
    return _timed(
        "arma_forecast",
        (
            np.ascontiguousarray(full_ar, dtype=np.float64),
            np.ascontiguousarray(ma_full, dtype=np.float64),
            np.ascontiguousarray(history, dtype=np.float64),
            np.ascontiguousarray(recent_e, dtype=np.float64),
            float(c_star),
            int(horizon),
        ),
    )


def bootstrap_deviations(psi, shocks):
    """Cumulative ψ-weight effect of resampled shocks, all paths at once."""
    return _timed(
        "bootstrap_deviations",
        (
            np.ascontiguousarray(psi, dtype=np.float64),
            np.ascontiguousarray(shocks, dtype=np.float64),
        ),
    )


# ---------------------------------------------------------------------------
# Batched public kernels (cohort dispatchers)
#
# Shapes follow a structure-of-arrays convention: the batch axis leads,
# per-key scalar parameters become (B,) vectors, per-key state vectors
# become (B, m) blocks. Cohort-wide structure (trend/seasonal flags,
# period, ARMA orders, horizon) stays scalar — rows that differ in
# structure belong in different cohorts. Every batched kernel is
# bit-identical, row for row, to B calls of its per-key sibling on both
# backends; a batch of one simply delegates to the per-key kernel.
# ---------------------------------------------------------------------------
def ets_recursion_batch(y, use_trend, seasonal_mode, period, alpha, beta, gamma, phi, level0, trend0, seasonal0):
    """Batched :func:`ets_recursion`: ``y`` is ``(B, n)``, params ``(B,)``.

    Returns ``(errors (B, n), level (B,), trend (B,), seasonal (B, m))``.
    ``y`` may be the transpose of a time-major ``(n, B)`` block: the numpy
    kernel reads it time-major, so that layout saves it a copy.
    """
    y = np.asarray(y, dtype=np.float64)
    return _timed_batch(
        "ets_recursion_batch",
        y.shape[0],
        (
            y,
            bool(use_trend),
            int(seasonal_mode),
            int(period),
            np.ascontiguousarray(alpha, dtype=np.float64),
            np.ascontiguousarray(beta, dtype=np.float64),
            np.ascontiguousarray(gamma, dtype=np.float64),
            np.ascontiguousarray(phi, dtype=np.float64),
            np.ascontiguousarray(level0, dtype=np.float64),
            np.ascontiguousarray(trend0, dtype=np.float64),
            np.ascontiguousarray(seasonal0, dtype=np.float64),
        ),
    )


def ets_mul_paths_batch(level0, trend0, seasonal0, alpha, beta, gamma, phi, use_trend, period, start_index, shocks):
    """Batched :func:`ets_mul_paths`: ``shocks`` is ``(B, paths, horizon)``.

    ``start_index`` is a ``(B,)`` int vector — each key's forecast origin
    phase within the seasonal cycle. Returns simulations ``(B, paths, horizon)``.
    """
    shocks = np.ascontiguousarray(shocks, dtype=np.float64)
    return _timed_batch(
        "ets_mul_paths_batch",
        shocks.shape[0],
        (
            np.ascontiguousarray(level0, dtype=np.float64),
            np.ascontiguousarray(trend0, dtype=np.float64),
            np.ascontiguousarray(seasonal0, dtype=np.float64),
            np.ascontiguousarray(alpha, dtype=np.float64),
            np.ascontiguousarray(beta, dtype=np.float64),
            np.ascontiguousarray(gamma, dtype=np.float64),
            np.ascontiguousarray(phi, dtype=np.float64),
            bool(use_trend),
            int(period),
            np.ascontiguousarray(start_index, dtype=np.int64),
            shocks,
        ),
    )


def arma_forecast_batch(full_ar, ma_full, history, recent_e, c_star, horizon):
    """Batched :func:`arma_forecast` over rows sharing ``(L, q)`` structure.

    Returns the point forecasts as ``(B, horizon)``.
    """
    full_ar = np.ascontiguousarray(full_ar, dtype=np.float64)
    return _timed_batch(
        "arma_forecast_batch",
        full_ar.shape[0],
        (
            full_ar,
            np.ascontiguousarray(ma_full, dtype=np.float64),
            np.ascontiguousarray(history, dtype=np.float64),
            np.ascontiguousarray(recent_e, dtype=np.float64),
            np.ascontiguousarray(c_star, dtype=np.float64),
            int(horizon),
        ),
    )
