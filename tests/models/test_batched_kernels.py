"""Bit-parity suite for the batched (cohort) kernels.

Every batched kernel in :mod:`repro.models.kernels` must be *bit-identical*,
row for row, to B independent calls of its per-key sibling — not merely
close: the scheduler's cohort dispatch promises byte-identical advisories
across dispatch modes, and that promise bottoms out here. Hypothesis
drives the small-batch shapes (including the B == 1 delegation path); a
fixed B = 256 case pins the wide-cohort path the benchmarks exercise.
The numba legs (when the perf extra is installed) must agree with the
same references bit for bit as well.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import kernels

needs_numba = pytest.mark.skipif(
    not kernels.NUMBA_AVAILABLE, reason="numba (the perf extra) is not installed"
)

BATCHES = st.sampled_from([1, 3, 17])
SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


@pytest.fixture
def restore_backend():
    before = kernels.active_backend()
    yield
    kernels.set_backend(before)
    kernels.ensure_warm()


def exact(a, b):
    """Bitwise equality (NaN == NaN); complex compared part by part."""
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        assert np.array_equal(a.real, b.real, equal_nan=True)
        assert np.array_equal(a.imag, b.imag, equal_nan=True)
    else:
        assert np.array_equal(a, b, equal_nan=True)


# ---------------------------------------------------------------------------
# Input generators — one per kernel family, shaped like real fits.
# ---------------------------------------------------------------------------
def _ets_inputs(seed, B, seasonal_mode, use_trend, n=24, m=6):
    rng = np.random.default_rng(seed)
    period = m if seasonal_mode else 1
    y = 50.0 + rng.normal(0.0, 4.0, (B, n))
    if seasonal_mode == 2:
        y = np.abs(y) + 1.0
    alpha = rng.uniform(0.05, 0.9, B)
    beta = rng.uniform(0.01, 0.3, B)
    gamma = rng.uniform(0.01, 0.3, B)
    phi = rng.uniform(0.85, 1.0, B)
    level0 = y[:, :period].mean(axis=1)
    trend0 = rng.normal(0.0, 0.2, B)
    if seasonal_mode == 1:
        seasonal0 = rng.normal(0.0, 2.0, (B, period))
    elif seasonal_mode == 2:
        seasonal0 = 1.0 + rng.uniform(-0.2, 0.2, (B, period))
    else:
        seasonal0 = np.zeros((B, 1))
    return y, use_trend, seasonal_mode, period, alpha, beta, gamma, phi, level0, trend0, seasonal0


def _arma_inputs(seed, B, L=3, q=2, horizon=12):
    # Contract: history carries exactly L = full_ar.size - 1 lagged values
    # and ma_full's leading element is the (unused) theta_0 slot.
    rng = np.random.default_rng(seed)
    full_ar = np.concatenate(
        [np.ones((B, 1)), rng.uniform(-0.2, 0.2, (B, L))], axis=1
    )
    ma_full = np.concatenate(
        [np.ones((B, 1)), rng.uniform(-0.3, 0.3, (B, q))], axis=1
    )
    history = rng.normal(50.0, 3.0, (B, L))
    recent_e = rng.normal(0.0, 1.0, (B, q))
    c_star = rng.normal(1.0, 0.1, B)
    return full_ar, ma_full, history, recent_e, c_star, horizon


def _paths_inputs(seed, B, P=16, H=12, m=6):
    rng = np.random.default_rng(seed)
    level0 = rng.uniform(40.0, 60.0, B)
    trend0 = rng.normal(0.0, 0.2, B)
    seasonal0 = 1.0 + rng.uniform(-0.2, 0.2, (B, m))
    alpha = rng.uniform(0.05, 0.9, B)
    beta = rng.uniform(0.01, 0.3, B)
    gamma = rng.uniform(0.01, 0.3, B)
    phi = rng.uniform(0.85, 1.0, B)
    start_index = rng.integers(0, m, B)
    shocks = rng.normal(0.0, 1.0, (B, P, H))
    return level0, trend0, seasonal0, alpha, beta, gamma, phi, True, m, start_index, shocks


# ---------------------------------------------------------------------------
# Row-for-row parity checks (shared by the hypothesis and numba legs).
# ---------------------------------------------------------------------------
def check_ets_recursion(seed, B, seasonal_mode, use_trend):
    args = _ets_inputs(seed, B, seasonal_mode, use_trend)
    y, ut, sm, period, alpha, beta, gamma, phi, level0, trend0, seasonal0 = args
    errors, level, trend, seas = kernels.ets_recursion_batch(*args)
    for i in range(B):
        e_i, l_i, t_i, s_i = kernels.ets_recursion(
            y[i], ut, sm, period, alpha[i], beta[i], gamma[i], phi[i],
            level0[i], trend0[i], seasonal0[i],
        )
        exact(errors[i], e_i)
        exact(level[i], l_i)
        exact(trend[i], t_i)
        exact(seas[i], s_i)


def check_ets_mul_paths(seed, B):
    args = _paths_inputs(seed, B)
    level0, trend0, seasonal0, alpha, beta, gamma, phi, ut, period, start, shocks = args
    sims = kernels.ets_mul_paths_batch(*args)
    for i in range(B):
        exact(
            sims[i],
            kernels.ets_mul_paths(
                level0[i], trend0[i], seasonal0[i], alpha[i], beta[i],
                gamma[i], phi[i], ut, period, int(start[i]), shocks[i],
            ),
        )


def check_arma_forecast(seed, B):
    full_ar, ma_full, history, recent_e, c_star, horizon = _arma_inputs(seed, B)
    out = kernels.arma_forecast_batch(full_ar, ma_full, history, recent_e, c_star, horizon)
    for i in range(B):
        exact(
            out[i],
            kernels.arma_forecast(
                full_ar[i], ma_full[i], history[i], recent_e[i], float(c_star[i]), horizon
            ),
        )


ALL_CHECKS = [
    check_ets_mul_paths,
    check_arma_forecast,
]


# ---------------------------------------------------------------------------
# Hypothesis legs: small batches, including the B == 1 delegation path.
# ---------------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(seed=SEEDS, B=BATCHES, seasonal_mode=st.sampled_from([0, 1, 2]), use_trend=st.booleans())
def test_ets_recursion_batch_parity(seed, B, seasonal_mode, use_trend):
    check_ets_recursion(seed, B, seasonal_mode, use_trend)


@settings(max_examples=8, deadline=None)
@given(seed=SEEDS, B=BATCHES)
def test_ets_mul_paths_batch_parity(seed, B):
    check_ets_mul_paths(seed, B)


@settings(max_examples=8, deadline=None)
@given(seed=SEEDS, B=BATCHES)
def test_arma_forecast_batch_parity(seed, B):
    check_arma_forecast(seed, B)


# ---------------------------------------------------------------------------
# Fixed wide-cohort leg: the shape the benchmarks (and the scheduler at
# scale) actually dispatch.
# ---------------------------------------------------------------------------
def test_wide_cohort_parity_b256():
    check_ets_recursion(7, 256, 2, True)
    for check in ALL_CHECKS:
        check(7, 256)


def test_batched_kernels_leave_inputs_untouched():
    # The batched recursions update working copies of the fitted state,
    # never the caller's arrays.
    ets_args = _ets_inputs(3, 4, 2, True)
    ets_copies = [a.copy() if isinstance(a, np.ndarray) else a for a in ets_args]
    kernels.ets_recursion_batch(*ets_args)
    for a, c in zip(ets_args, ets_copies):
        if isinstance(a, np.ndarray):
            exact(a, c)


def test_nonfinite_rows_fall_back_per_key():
    # A poisoned row must reproduce the per-key kernel's NaN propagation
    # bit for bit without contaminating its cohort neighbours.
    args = list(_ets_inputs(11, 5, 2, True))
    args[0] = args[0].copy()
    args[0][2, 7] = np.nan
    y, ut, sm, period, alpha, beta, gamma, phi, level0, trend0, seasonal0 = args
    errors, level, trend, seas = kernels.ets_recursion_batch(*args)
    for i in range(5):
        e_i, l_i, t_i, s_i = kernels.ets_recursion(
            y[i], ut, sm, period, alpha[i], beta[i], gamma[i], phi[i],
            level0[i], trend0[i], seasonal0[i],
        )
        exact(errors[i], e_i)
        exact(level[i], l_i)
        exact(trend[i], t_i)
        exact(seas[i], s_i)


# ---------------------------------------------------------------------------
# Telemetry: batched kernels report a rows dimension next to calls.
# ---------------------------------------------------------------------------
def test_batched_kernels_report_rows():
    before = kernels.stats_snapshot()
    check_ets_recursion(31, 17, 1, False)
    after = kernels.stats_snapshot()
    moved_calls = after["kernel_ets_recursion_batch_calls"] - before.get(
        "kernel_ets_recursion_batch_calls", 0
    )
    moved_rows = after["kernel_ets_recursion_batch_rows"] - before.get(
        "kernel_ets_recursion_batch_rows", 0
    )
    assert moved_calls >= 1
    assert moved_rows >= 17
    assert moved_rows / moved_calls > 1  # realised mean cohort size


def test_batched_names_registered():
    for name in kernels.BATCHED_KERNEL_NAMES:
        assert name.endswith("_batch")
    snap = kernels.stats_snapshot()
    for name in kernels.BATCHED_KERNEL_NAMES:
        assert f"kernel_{name}_calls" in snap
        assert f"kernel_{name}_rows" in snap


# ---------------------------------------------------------------------------
# Numba leg: identical parity guarantees on the compiled backend.
# ---------------------------------------------------------------------------
@needs_numba
def test_batched_parity_on_numba(restore_backend):
    kernels.set_backend("numba")
    kernels.ensure_warm()
    check_ets_recursion(43, 9, 2, True)
    check_ets_recursion(43, 1, 1, False)
    for check in ALL_CHECKS:
        check(43, 9)
        check(43, 1)
