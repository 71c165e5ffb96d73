"""Parity suite for the compiled numeric kernels.

Every kernel in :mod:`repro.models.kernels` must agree with an inlined
reference implementation — a verbatim copy of the per-timestep loop the
kernel replaced — to ≤1e-9 relative tolerance over hypothesis-generated
inputs, on every available backend. Guard behaviour (non-finite inputs,
divergent recursions) must also match: objectives must see a non-finite
SSE / a failed filter exactly where the old loops produced one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import kernels

RTOL = 1e-9

needs_numba = pytest.mark.skipif(
    not kernels.NUMBA_AVAILABLE, reason="numba (the perf extra) is not installed"
)


@pytest.fixture
def restore_backend():
    before = kernels.active_backend()
    yield
    kernels.set_backend(before)
    kernels.ensure_warm()


def _series(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return 50.0 + 0.05 * t + 8.0 * np.sin(2 * np.pi * t / 12) + rng.normal(0, 1.5, n)


# ---------------------------------------------------------------------------
# Reference implementations: the loops the kernels replaced, verbatim.
# ---------------------------------------------------------------------------
def ref_ets_recursion(y, use_trend, seasonal_mode, period, alpha, beta, gamma, phi, level0, trend0, seasonal0):
    n = y.size
    level, trend = level0, trend0
    seas = seasonal0.copy()
    errors = np.empty(n)
    for t in range(n):
        damped_trend = phi * trend if use_trend else 0.0
        s_idx = t % period if seasonal_mode else 0
        if seasonal_mode == 1:
            fitted = level + damped_trend + seas[s_idx]
        elif seasonal_mode == 2:
            fitted = (level + damped_trend) * seas[s_idx]
        else:
            fitted = level + damped_trend
        errors[t] = y[t] - fitted
        prev_level = level
        if seasonal_mode == 1:
            level = alpha * (y[t] - seas[s_idx]) + (1 - alpha) * (prev_level + damped_trend)
            seas[s_idx] = gamma * (y[t] - prev_level - damped_trend) + (1 - gamma) * seas[s_idx]
        elif seasonal_mode == 2:
            denom = seas[s_idx] if abs(seas[s_idx]) > 1e-12 else 1e-12
            level = alpha * (y[t] / denom) + (1 - alpha) * (prev_level + damped_trend)
            base = prev_level + damped_trend
            seas[s_idx] = gamma * (y[t] / (base if abs(base) > 1e-12 else 1e-12)) + (1 - gamma) * seas[s_idx]
        else:
            level = alpha * y[t] + (1 - alpha) * (prev_level + damped_trend)
        if use_trend:
            trend = beta * (level - prev_level) + (1 - beta) * damped_trend
    return errors, level, trend, seas


def ref_ets_mul_paths(level0, trend0, seasonal0, alpha, beta, gamma, phi, use_trend, period, start_index, shocks):
    n_paths, horizon = shocks.shape
    sims = np.empty((n_paths, horizon))
    for i in range(n_paths):
        level, trend, seas = level0, trend0, seasonal0.copy()
        for h in range(horizon):
            damped_trend = phi * trend if use_trend else 0.0
            s_idx = (start_index + h) % period
            value = (level + damped_trend) * seas[s_idx] + shocks[i, h]
            prev_level = level
            denom = seas[s_idx] if abs(seas[s_idx]) > 1e-12 else 1e-12
            level = alpha * (value / denom) + (1 - alpha) * (prev_level + damped_trend)
            base = prev_level + damped_trend
            seas[s_idx] = gamma * (value / (base if abs(base) > 1e-12 else 1e-12)) + (1 - gamma) * seas[s_idx]
            if use_trend:
                trend = beta * (level - prev_level) + (1 - beta) * damped_trend
            sims[i, h] = value
    return sims


def ref_tbats_filter(y, alpha, beta, phi, use_trend, rot, gamma_vec, ar, ma, level0, trend0, z0, d0, e0):
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
        y_hat = level + phi * trend + seasonal + d_pred
        e = y[t] - y_hat
        d = d_pred + e
        innovations[t] = e
        prev_level = level
        level = prev_level + phi * trend + alpha * d
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


def ref_tbats_paths(alpha, beta, phi, use_trend, rot, gamma_vec, ar, ma, level0, trend0, z0, d0, e0, shocks):
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
            prev_level = level
            level = prev_level + phi * trend + alpha * d
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


def ref_kalman_filter(y, T, RRt, P0):
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


def ref_arma_forecast(full_ar, ma_full, history, recent_e, c_star, horizon):
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


def ref_bootstrap_deviations(psi, shocks):
    n_paths, horizon = shocks.shape
    deviations = np.empty((n_paths, horizon))
    for h in range(horizon):
        deviations[:, h] = shocks[:, : h + 1] @ psi[: h + 1][::-1]
    return deviations


# ---------------------------------------------------------------------------
# Shared input builders
# ---------------------------------------------------------------------------
def ets_args(seed, n, use_trend, seasonal_mode, alpha, beta, gamma, phi):
    y = _series(seed, n)
    period = 12 if seasonal_mode else 1
    if seasonal_mode == 2:
        seasonal0 = 1.0 + 0.2 * np.sin(2 * np.pi * np.arange(period) / period)
    elif seasonal_mode == 1:
        seasonal0 = 5.0 * np.sin(2 * np.pi * np.arange(period) / period)
    else:
        seasonal0 = np.zeros(1)
    return (y, use_trend, seasonal_mode, period, alpha, beta, gamma, phi, float(y[:max(period, 1)].mean()), 0.05, seasonal0)


def tbats_args(seed, n, use_trend, k, p, q):
    y = _series(seed, n) / 10.0
    rng = np.random.default_rng(seed + 1)
    lam = 2 * np.pi * np.arange(1, k + 1) / 12.0
    rot = np.exp(-1j * lam)
    gamma_vec = np.full(k, 0.002 + 0.001j)
    ar = np.full(p, 0.3)
    ma = np.full(q, 0.2)
    z0 = rng.normal(0, 0.5, k) + 1j * rng.normal(0, 0.5, k)
    return (
        y, 0.12, 0.02, 0.97, use_trend, rot, gamma_vec, ar, ma,
        float(y.mean()), 0.01, z0, np.zeros(p), np.zeros(q),
    )


def kalman_args(seed, n, phi_coef, theta_coef):
    from repro.models.kalman import arma_state_space, stationary_initialisation

    y = _series(seed, n) - np.mean(_series(seed, n))
    T, R, __ = arma_state_space(np.atleast_1d(phi_coef), np.atleast_1d(theta_coef))
    P0 = stationary_initialisation(T, R)
    return y, T, np.outer(R, R), P0


# ---------------------------------------------------------------------------
# Kernel vs reference parity (active backend, whatever it is)
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(30, 90),
    use_trend=st.booleans(),
    seasonal_mode=st.integers(0, 2),
    alpha=st.floats(0.01, 0.95),
    beta=st.floats(0.01, 0.4),
    gamma=st.floats(0.01, 0.4),
    phi=st.floats(0.8, 0.998),
)
def test_ets_recursion_matches_reference(seed, n, use_trend, seasonal_mode, alpha, beta, gamma, phi):
    args = ets_args(seed, n, use_trend, seasonal_mode, alpha, beta, gamma, phi)
    errors, level, trend, seas = kernels.ets_recursion(*args)
    ref_errors, ref_level, ref_trend, ref_seas = ref_ets_recursion(*args)
    np.testing.assert_allclose(errors, ref_errors, rtol=RTOL, atol=1e-12)
    np.testing.assert_allclose([level, trend], [ref_level, ref_trend], rtol=RTOL, atol=1e-12)
    np.testing.assert_allclose(seas, ref_seas, rtol=RTOL, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_paths=st.integers(2, 8),
    horizon=st.integers(1, 30),
    use_trend=st.booleans(),
    start_index=st.integers(0, 500),
)
def test_ets_mul_paths_matches_reference(seed, n_paths, horizon, use_trend, start_index):
    rng = np.random.default_rng(seed)
    period = 12
    seasonal0 = 1.0 + 0.3 * np.sin(2 * np.pi * np.arange(period) / period)
    shocks = rng.normal(0, 0.8, size=(n_paths, horizon))
    args = (55.0, 0.1, seasonal0, 0.3, 0.1, 0.1, 0.97, use_trend, period, start_index, shocks)
    np.testing.assert_allclose(
        kernels.ets_mul_paths(*args), ref_ets_mul_paths(*args), rtol=RTOL, atol=1e-12
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(30, 80),
    use_trend=st.booleans(),
    k=st.integers(0, 4),
    p=st.integers(0, 2),
    q=st.integers(0, 2),
)
def test_tbats_filter_matches_reference(seed, n, use_trend, k, p, q):
    args = tbats_args(seed, n, use_trend, k, p, q)
    out = kernels.tbats_filter(*args)
    ref = ref_tbats_filter(*args)
    np.testing.assert_allclose(out[0], ref[0], rtol=RTOL, atol=1e-12)  # innovations
    np.testing.assert_allclose([out[1], out[2]], [ref[1], ref[2]], rtol=RTOL, atol=1e-12)
    np.testing.assert_allclose(out[3], ref[3], rtol=RTOL, atol=1e-12)  # z (complex)
    np.testing.assert_allclose(out[4], ref[4], rtol=RTOL, atol=1e-12)
    np.testing.assert_allclose(out[5], ref[5], rtol=RTOL, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_paths=st.integers(1, 6),
    horizon=st.integers(1, 24),
    use_trend=st.booleans(),
    k=st.integers(0, 3),
    p=st.integers(0, 1),
    q=st.integers(0, 1),
)
def test_tbats_paths_matches_reference(seed, n_paths, horizon, use_trend, k, p, q):
    base = tbats_args(seed, 10, use_trend, k, p, q)
    rng = np.random.default_rng(seed + 2)
    shocks = rng.normal(0, 0.5, size=(n_paths, horizon))
    args = base[1:] + (shocks,)  # drop y, append shocks
    np.testing.assert_allclose(
        kernels.tbats_paths(*args), ref_tbats_paths(*args), rtol=RTOL, atol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(20, 120),
    phi_coef=st.floats(-0.9, 0.9),
    theta_coef=st.floats(-0.9, 0.9),
)
def test_kalman_filter_matches_reference(seed, n, phi_coef, theta_coef):
    y, T, RRt, P0 = kalman_args(seed, n, phi_coef, theta_coef)
    sum_sq, sum_logF, ok = kernels.kalman_filter(y, T, RRt, P0)
    ref_sq, ref_logF, ref_ok = ref_kalman_filter(y, T, RRt, P0)
    assert ok == ref_ok
    if ok:
        np.testing.assert_allclose([sum_sq, sum_logF], [ref_sq, ref_logF], rtol=RTOL)


def test_kalman_filter_scalar_dimension_matches_reference():
    # A pure AR(1) gives state dimension m == 1, the fastest scalar path.
    from repro.models.kalman import arma_state_space, stationary_initialisation

    y = _series(2, 80)
    y = y - y.mean()
    T, R, __ = arma_state_space(np.array([0.7]), np.empty(0))
    assert T.shape[0] == 1
    P0 = stationary_initialisation(T, R)
    RRt = np.outer(R, R)
    out = kernels.kalman_filter(y, T, RRt, P0)
    ref = ref_kalman_filter(y, T, RRt, P0)
    assert out[2] and ref[2]
    np.testing.assert_allclose(out[:2], ref[:2], rtol=RTOL)


def test_kalman_filter_generic_dimension_matches_reference():
    # m > 2 exercises the generic matrix path rather than the scalar ones.
    from repro.models.kalman import arma_state_space, stationary_initialisation

    y = _series(3, 100)
    y = y - y.mean()
    T, R, __ = arma_state_space(np.array([0.5, -0.2, 0.1]), np.array([0.3, 0.1, 0.05]))
    assert T.shape[0] == 4
    P0 = stationary_initialisation(T, R)
    RRt = np.outer(R, R)
    out = kernels.kalman_filter(y, T, RRt, P0)
    ref = ref_kalman_filter(y, T, RRt, P0)
    assert out[2] and ref[2]
    np.testing.assert_allclose(out[:2], ref[:2], rtol=RTOL)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    L=st.integers(0, 30),
    q_full=st.integers(0, 30),
    n_e=st.integers(0, 30),
    horizon=st.integers(1, 36),
    c_star=st.floats(-5, 5),
)
def test_arma_forecast_matches_reference(seed, L, q_full, n_e, horizon, c_star):
    rng = np.random.default_rng(seed)
    full_ar = np.concatenate(([1.0], rng.uniform(-0.4, 0.4, L) / max(L, 1)))
    ma_full = np.concatenate(([1.0], rng.uniform(-0.4, 0.4, q_full)))
    history = rng.normal(50, 5, L)
    recent_e = rng.normal(0, 1, n_e)
    args = (full_ar, ma_full, history, recent_e, c_star, horizon)
    np.testing.assert_allclose(
        kernels.arma_forecast(*args), ref_arma_forecast(*args), rtol=RTOL, atol=1e-9
    )


def every_lag_arma_forecast(full_ar, ma_full, history, recent_e, c_star, horizon):
    """The numpy ARMA kernel as it was before it skipped zero MA lags."""
    L = full_ar.size - 1
    q_full = ma_full.size - 1
    n_e = recent_e.size
    buf = np.empty(L + horizon)
    if L:
        buf[:L] = history
    rev_ar = full_ar[:0:-1].copy()  # [ar_L, ..., ar_1]
    mal = ma_full.tolist()
    rel = recent_e.tolist()
    mean = np.empty(horizon)
    for h in range(horizon):
        acc = c_star
        if L:
            acc -= float(rev_ar @ buf[h : h + L])
        for j in range(h + 1, q_full + 1):
            idx = n_e + h - j
            if 0 <= idx < n_e:
                acc += mal[j] * rel[idx]
        buf[L + h] = acc
        mean[h] = acc
    return mean


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    L=st.integers(0, 26),
    q_full=st.integers(0, 26),
    n_e=st.integers(0, 26),
    horizon=st.integers(1, 30),
    c_star=st.one_of(SIGNED_ZEROS, st.floats(-5, 5)),
    zero_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    zero_ar=st.booleans(),
    zero_history=st.booleans(),
    bad_innovation=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    zero_innovations=st.booleans(),
)
def test_arma_forecast_skipping_zero_lags_is_exact(
    seed, L, q_full, n_e, horizon, c_star, zero_share, zero_ar, zero_history,
    bad_innovation, zero_innovations,
):
    # Zero and -0.0 MA coefficients at random lags, with the signed zeros
    # and non-finite innovations that make a skipped +-0.0 product matter.
    rng = np.random.default_rng(seed)
    full_ar = np.concatenate(([1.0], rng.uniform(-0.4, 0.4, L)))
    if zero_ar:
        full_ar[1:] = 0.0
    ma_full = np.concatenate(([1.0], rng.uniform(-0.6, 0.6, q_full)))
    zeros = rng.random(q_full) < zero_share
    ma_full[1:][zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    history = rng.choice([0.0, -0.0], L) if zero_history else rng.normal(50, 5, L)
    recent_e = rng.choice([0.0, -0.0], n_e) if zero_innovations else rng.normal(0, 1, n_e)
    if bad_innovation is not None and n_e:
        recent_e[rng.integers(n_e)] = bad_innovation
    args = (full_ar, ma_full, history, recent_e, c_star, horizon)
    with np.errstate(invalid="ignore", over="ignore"):
        got = kernels._arma_forecast_numpy(*args)
        want = every_lag_arma_forecast(*args)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_paths=st.integers(1, 60),
    horizon=st.integers(1, 48),
)
def test_bootstrap_deviations_matches_reference(seed, n_paths, horizon):
    rng = np.random.default_rng(seed)
    psi = rng.uniform(-1.0, 1.0, horizon)
    psi[0] = 1.0
    shocks = rng.normal(0, 2.0, size=(n_paths, horizon))
    np.testing.assert_allclose(
        kernels.bootstrap_deviations(psi, shocks),
        ref_bootstrap_deviations(psi, shocks),
        rtol=RTOL,
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# Guard behaviour: non-finite input and divergence
# ---------------------------------------------------------------------------
def test_ets_recursion_nonfinite_input_yields_nonfinite_sse():
    args = list(ets_args(0, 40, True, 1, 0.3, 0.1, 0.1, 0.97))
    y = args[0].copy()
    y[13] = np.nan
    args[0] = y
    errors, *_ = kernels.ets_recursion(*args)
    sse = float(errors @ errors)
    assert not np.isfinite(sse)  # objectives map this to the 1e12 penalty


def test_ets_recursion_divergence_yields_nonfinite_sse():
    # Multiplicative seasonal with a collapsed seasonal state: y/denom
    # overflows the recursion on any backend; both must surface a
    # non-finite SSE rather than raising.
    y = np.full(10, 1e300)
    args = (y, False, 2, 2, 0.5, 0.0, 0.1, 1.0, 1.0, 0.0, np.zeros(2))
    errors, level, *_ = kernels.ets_recursion(*args)
    assert not np.isfinite(float(errors @ errors))
    assert not np.isfinite(level)


def test_tbats_filter_nonfinite_input_yields_nonfinite_sse():
    args = list(tbats_args(0, 40, True, 2, 1, 1))
    y = args[0].copy()
    y[7] = np.inf
    args[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        innovations, *_ = kernels.tbats_filter(*args)
        sse = float(innovations @ innovations)
    assert not np.isfinite(sse)


def test_kalman_filter_rejects_nonfinite_variance():
    y, T, RRt, P0 = kalman_args(1, 50, 0.5, 0.2)
    bad_P0 = P0.copy()
    bad_P0[0, 0] = np.nan
    __, __, ok = kernels.kalman_filter(y, T, RRt, bad_P0)
    assert not ok
    assert ref_kalman_filter(y, T, RRt, bad_P0)[2] is False


def test_kalman_filter_rejects_nonpositive_variance():
    y, T, RRt, P0 = kalman_args(1, 50, 0.5, 0.2)
    bad_P0 = np.zeros_like(P0)
    __, __, ok = kernels.kalman_filter(y, T, RRt, bad_P0)
    assert not ok


# ---------------------------------------------------------------------------
# Backend selection, fallback, dispatch counters
# ---------------------------------------------------------------------------
def test_backend_resolution_fallback(restore_backend):
    assert kernels.set_backend("numpy") == "numpy"
    if kernels.NUMBA_AVAILABLE:
        assert kernels.set_backend("numba") == "numba"
        assert kernels.set_backend("auto") == "numba"
    else:
        # Graceful fallback: asking for numba without the perf extra
        # quietly lands on numpy rather than crashing.
        assert kernels.set_backend("numba") == "numpy"
        assert kernels.set_backend("auto") == "numpy"
    assert kernels.set_backend("definitely-not-a-backend") in ("numpy", "numba")


def test_available_backends_always_lists_numpy():
    assert "numpy" in kernels.available_backends()


def test_dispatch_counts_calls_and_time():
    before = kernels.stats_snapshot()
    y = _series(5, 50)
    psi = np.array([1.0, 0.4, 0.2])
    kernels.bootstrap_deviations(psi, np.ones((4, 3)))
    kernels.ets_recursion(y, False, 0, 1, 0.3, 0.0, 0.0, 1.0, float(y[0]), 0.0, np.zeros(1))
    after = kernels.stats_snapshot()
    assert after["kernel_bootstrap_deviations_calls"] == before["kernel_bootstrap_deviations_calls"] + 1
    assert after["kernel_ets_recursion_calls"] == before["kernel_ets_recursion_calls"] + 1
    assert after["kernel_ets_recursion_us"] >= before["kernel_ets_recursion_us"]


def test_warm_compile_idempotent_and_counted():
    kernels.ensure_warm()
    snap1 = kernels.stats_snapshot()
    kernels.ensure_warm()  # second call must be a no-op
    snap2 = kernels.stats_snapshot()
    assert snap1["kernel_warm_runs"] >= 1
    assert snap2["kernel_warm_runs"] == snap1["kernel_warm_runs"]


# ---------------------------------------------------------------------------
# Cross-backend agreement (requires the perf extra)
# ---------------------------------------------------------------------------
@needs_numba
def test_numba_matches_numpy_on_every_kernel(restore_backend):
    cases = {
        "ets_recursion": ets_args(7, 60, True, 2, 0.3, 0.1, 0.1, 0.97),
        "tbats_filter": tbats_args(7, 60, True, 3, 1, 1),
        "kalman_filter": kalman_args(7, 80, 0.6, -0.3),
        "arma_forecast": (
            np.array([1.0, -0.6, 0.08]),
            np.array([1.0, 0.4]),
            np.array([48.0, 52.0]),
            np.array([0.3]),
            1.2,
            24,
        ),
        "bootstrap_deviations": (
            np.array([1.0, 0.5, 0.25, 0.125]),
            np.random.default_rng(0).normal(0, 1, (50, 4)),
        ),
    }
    results = {}
    for backend in ("numpy", "numba"):
        kernels.set_backend(backend)
        kernels.ensure_warm()
        results[backend] = {
            name: getattr(kernels, name)(*args) for name, args in cases.items()
        }
    for name in cases:
        a, b = results["numpy"][name], results["numba"][name]
        if isinstance(a, tuple):
            for x, y in zip(a, b):
                np.testing.assert_allclose(np.asarray(x), np.asarray(y), rtol=RTOL, atol=1e-12)
        else:
            np.testing.assert_allclose(a, b, rtol=RTOL, atol=1e-12)


# ---------------------------------------------------------------------------
# Identical grid winners across backends (reduced grid)
# ---------------------------------------------------------------------------
def test_reduced_grid_winner_identical_across_backends(restore_backend):
    from repro.core import Frequency, TimeSeries
    from repro.selection import evaluate_grid, sarimax_grid

    y = _series(11, 160)
    series = TimeSeries(y, Frequency.HOURLY, name="parity")
    train, test = series.split(140)
    specs = sarimax_grid(24, max_lag=4)[::6][:8]

    leaderboards = {}
    for backend in kernels.available_backends():
        kernels.set_backend(backend)
        kernels.ensure_warm()
        results = evaluate_grid(specs, train, test, maxiter=15)
        leaderboards[backend] = [(r.spec, round(r.rmse, 9)) for r in results]
    baseline = leaderboards["numpy"]
    for backend, board in leaderboards.items():
        assert [s for s, __ in board] == [s for s, __ in baseline], backend
        np.testing.assert_allclose(
            [v for __, v in board], [v for __, v in baseline], rtol=1e-9
        )
