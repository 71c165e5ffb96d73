"""Multiplicative HES bands: the shared shock draw and the gather-free path kernels.

A multiplicative-seasonal fit's band is a 500-path simulation over
seed-1234 Gaussian shocks. Each key used to draw its shocks from a fresh
generator, and the path kernels carried a per-path copy of the seasonal
state, gathered and scattered every step. Those implementations are kept
below as oracles, verbatim apart from the names they call, and every
band and every simulated path must equal theirs byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TimeSeries
from repro.models import ets, kernels
from repro.models.ets import FittedExpSmoothing, _EtsSpec
from repro.models.kernels import _nonfinite_rows

_MUL_STD_CHUNK = 32


@pytest.fixture(scope="module", autouse=True)
def numpy_backend():
    # The oracles are the numpy kernels; the numba leg has its own suite.
    before = kernels.active_backend()
    kernels.set_backend("numpy")
    yield
    kernels.set_backend(before)
    kernels.ensure_warm()


# ---------------------------------------------------------------------------
# Oracles: the per-key draws and the gather/scatter kernels, as they were.
# ---------------------------------------------------------------------------
def oracle_ets_mul_paths_numpy(
    level0, trend0, seasonal0, alpha, beta, gamma, phi, use_trend, period, start_index, shocks
):
    """Multiplicative-seasonal simulation, broadcast across all paths."""
    n_paths, horizon = shocks.shape
    level = np.full(n_paths, level0)
    trend = np.full(n_paths, trend0)
    seas = np.tile(seasonal0, (n_paths, 1))
    sims = np.empty((n_paths, horizon))
    one_a = 1.0 - alpha
    one_g = 1.0 - gamma
    one_b = 1.0 - beta
    for h in range(horizon):
        dt = phi * trend if use_trend else 0.0
        s_idx = (start_index + h) % period
        s = seas[:, s_idx].copy()
        value = (level + dt) * s + shocks[:, h]
        prev = level
        denom = np.where(np.abs(s) > 1e-12, s, 1e-12)
        level = alpha * (value / denom) + one_a * (prev + dt)
        base = prev + dt
        base = np.where(np.abs(base) > 1e-12, base, 1e-12)
        seas[:, s_idx] = gamma * (value / base) + one_g * s
        if use_trend:
            trend = beta * (level - prev) + one_b * dt
        sims[:, h] = value
    return sims


def oracle_ets_mul_paths_batch_numpy(
    level0, trend0, seasonal0, alpha, beta, gamma, phi, use_trend, period, start_index, shocks
):
    """Batched multiplicative-seasonal simulation: ``shocks`` is ``(B, P, H)``."""
    B, n_paths, horizon = shocks.shape
    if B == 1:
        sims = oracle_ets_mul_paths_numpy(
            float(level0[0]), float(trend0[0]), seasonal0[0],
            float(alpha[0]), float(beta[0]), float(gamma[0]), float(phi[0]),
            use_trend, period, int(start_index[0]), shocks[0],
        )
        return sims[None, :, :]
    level = np.repeat(level0.astype(float)[:, None], n_paths, axis=1)
    trend = np.repeat(trend0.astype(float)[:, None], n_paths, axis=1)
    seas = np.repeat(seasonal0.astype(float)[:, None, :], n_paths, axis=1)
    sims = np.empty((B, n_paths, horizon))
    al = alpha[:, None]
    be = beta[:, None]
    ga = gamma[:, None]
    ph = phi[:, None]
    one_a = 1.0 - al
    one_g = 1.0 - ga
    one_b = 1.0 - be
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for h in range(horizon):
            dt = ph * trend if use_trend else 0.0
            s_idx = (start_index + h) % period
            gather = s_idx[:, None, None]
            s = np.take_along_axis(seas, gather, axis=2)[:, :, 0]
            value = (level + dt) * s + shocks[:, :, h]
            prev = level
            denom = np.where(np.abs(s) > 1e-12, s, 1e-12)
            level = al * (value / denom) + one_a * (prev + dt)
            base = prev + dt
            base = np.where(np.abs(base) > 1e-12, base, 1e-12)
            np.put_along_axis(seas, gather, (ga * (value / base) + one_g * s)[:, :, None], axis=2)
            if use_trend:
                trend = be * (level - prev) + one_b * dt
            sims[:, :, h] = value
    bad = _nonfinite_rows(sims)
    for b in np.flatnonzero(bad):
        sims[b] = oracle_ets_mul_paths_numpy(
            float(level0[b]), float(trend0[b]), seasonal0[b],
            float(alpha[b]), float(beta[b]), float(gamma[b]), float(phi[b]),
            use_trend, period, int(start_index[b]), shocks[b],
        )
    return sims


def oracle_cohort_forecast_std(
    models: list[FittedExpSmoothing], spec: _EtsSpec, horizon: int, damp: np.ndarray
) -> np.ndarray:
    sigma2 = np.array([model.sigma2 for model in models])
    B = len(models)
    m = spec.period
    if spec.seasonal != "mul":
        alphas = np.array([model.alpha for model in models])
        c = np.repeat(alphas[:, None], horizon, axis=1)
        if spec.trend:
            betas = np.array([model.beta for model in models])
            c = c + (alphas * betas)[:, None] * damp
        if spec.seasonal == "add" and m > 1:
            gammas = np.array([model.gamma for model in models])
            c = np.where(
                (np.arange(1, horizon + 1) % m == 0)[None, :],
                c + (gammas * (1 - alphas))[:, None],
                c,
            )
        acc = np.concatenate(
            [np.zeros((B, 1)), np.cumsum(c[:, :-1] ** 2, axis=1)], axis=1
        )
        return np.sqrt(sigma2[:, None] * (1.0 + acc))
    sigma = np.sqrt(sigma2)
    std = np.empty((B, horizon))
    for lo in range(0, B, _MUL_STD_CHUNK):
        chunk = models[lo : lo + _MUL_STD_CHUNK]
        # One fresh generator per key, exactly as the per-key path draws.
        shocks = np.stack(
            [
                np.random.default_rng(1234).normal(0.0, sigma[lo + j], size=(500, horizon))
                for j in range(len(chunk))
            ]
        )
        sims = oracle_ets_mul_paths_batch_numpy(
            np.array([model.level for model in chunk]),
            np.array([model.trend for model in chunk]),
            np.stack([model.seasonal_state for model in chunk]),
            np.array([model.alpha for model in chunk]),
            np.array([model.beta for model in chunk]),
            np.array([model.gamma for model in chunk]),
            np.array([model.phi for model in chunk]),
            spec.trend,
            m,
            np.array([len(model.train) for model in chunk]),
            shocks,
        )
        for j in range(len(chunk)):
            std[lo + j] = sims[j].std(axis=0)
    return std


def oracle_forecast_std(model: FittedExpSmoothing, horizon: int) -> np.ndarray:
    """``FittedExpSmoothing._forecast_std``'s multiplicative branch, as it was."""
    sigma = np.sqrt(model.sigma2)
    rng = np.random.default_rng(1234)
    n_paths = 500
    shocks = rng.normal(0.0, sigma, size=(n_paths, horizon))
    sims = oracle_ets_mul_paths_numpy(
        model.level,
        model.trend,
        model.seasonal_state,
        model.alpha,
        model.beta,
        model.gamma,
        model.phi,
        model.spec.trend,
        model.spec.period,
        len(model.train),
        shocks,
    )
    return sims.std(axis=0)


# ---------------------------------------------------------------------------
# Cohorts with the edges that make a band's bytes fragile.
# ---------------------------------------------------------------------------
EDGES = ("seasonal", "crossing", "sigma", "nonfinite")


def _rows(rng, B, share=0.3):
    """A random subset of the cohort's rows, never empty."""
    rows = np.flatnonzero(rng.random(B) < share)
    return rows if rows.size else np.array([int(rng.integers(B))])


def _cohort(seed, B, m, trend, damped, edges):
    rng = np.random.default_rng(seed)
    spec = _EtsSpec(trend=trend, damped=damped, seasonal="mul", period=m)
    level = rng.uniform(20.0, 80.0, B)
    slope = rng.normal(0.0, 0.5, B) if trend else np.zeros(B)
    seasonal = 1.0 + rng.uniform(-0.3, 0.3, (B, m))
    sigma2 = rng.uniform(0.1, 9.0, B)
    if "seasonal" in edges:
        hit = rng.random((B, m)) < 0.25
        seasonal[hit] = rng.choice([0.0, 1e-13, -1e-13, -0.7], int(hit.sum()))
    if "crossing" in edges:
        # level + dt near zero and crossing it: the guarded divisor's edge.
        rows = _rows(rng, B)
        level[rows] = rng.uniform(-1.0, 1.0, rows.size)
        if trend:
            slope[rows] = -2.0 * level[rows]
    if "sigma" in edges:
        rows = _rows(rng, B)
        sigma2[rows] = rng.choice([0.0, np.nan, np.inf], rows.size)
    if "nonfinite" in edges:
        rows = _rows(rng, B, share=0.1)
        level[rows] = rng.choice([np.inf, np.nan, 1e300], rows.size)
    models = []
    for i in range(B):
        n = int(rng.integers(2 * m + 1, 3 * m + 1))  # per-row start phase n % m
        models.append(
            FittedExpSmoothing(
                train=TimeSeries(np.ones(n)),
                residuals=np.zeros(n),
                sigma2=float(sigma2[i]),
                n_params=4,
                spec=spec,
                alpha=float(rng.uniform(0.05, 0.95)),
                beta=float(rng.uniform(0.01, 0.3)) if trend else 0.0,
                gamma=float(rng.uniform(0.01, 0.3)),
                phi=float(rng.uniform(0.8, 0.998)) if damped else 1.0,
                level=float(level[i]),
                trend=float(slope[i]),
                seasonal_state=seasonal[i],
            )
        )
    return spec, models


def _kernel_args(models, spec, shocks):
    return (
        np.array([model.level for model in models]),
        np.array([model.trend for model in models]),
        np.stack([model.seasonal_state for model in models]),
        np.array([model.alpha for model in models]),
        np.array([model.beta for model in models]),
        np.array([model.gamma for model in models]),
        np.array([model.phi for model in models]),
        spec.trend,
        spec.period,
        np.array([len(model.train) for model in models]),
        shocks,
    )


PERIODS = st.sampled_from([3, 24])
TRENDS = st.sampled_from([(False, False), (True, False), (True, True)])
HORIZON_KINDS = st.sampled_from(["1", "m-1", "m", "m+1", "2m+3"])


def _horizon(kind, m):
    return {"1": 1, "m-1": m - 1, "m": m, "m+1": m + 1, "2m+3": 2 * m + 3}[kind]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    B=st.sampled_from([1, 2, 17, 32, 33]),
    m=PERIODS,
    trend=TRENDS,
    horizon_kind=HORIZON_KINDS,
    edges=st.sets(st.sampled_from(EDGES)),
)
def test_bands_equal_the_per_key_draws(seed, B, m, trend, horizon_kind, edges):
    # B = 33 crosses _MUL_STD_CHUNK; H runs from one step to past two cycles.
    spec, models = _cohort(seed, B, m, *trend, edges)
    horizon = _horizon(horizon_kind, m)
    damp = np.empty((B, 0))  # the multiplicative std never reads it
    with np.errstate(all="ignore"):
        got = ets._cohort_forecast_std(models, spec, horizon, damp)
        want = oracle_cohort_forecast_std(models, spec, horizon, damp)
        assert got.tobytes() == want.tobytes()
        for i in {0, B - 1}:
            solo = models[i]._forecast_std(horizon)
            assert solo.tobytes() == oracle_forecast_std(models[i], horizon).tobytes()
            assert solo.tobytes() == got[i].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    B=st.sampled_from([1, 2, 17]),
    m=PERIODS,
    trend=TRENDS,
    horizon_kind=HORIZON_KINDS,
    edges=st.sets(st.sampled_from(EDGES)),
    bad_shock=st.sampled_from([None, np.nan, np.inf, -np.inf, 0.0, -0.0]),
)
def test_path_kernels_equal_the_gather_scatter_kernel(
    seed, B, m, trend, horizon_kind, edges, bad_shock
):
    spec, models = _cohort(seed, B, m, *trend, edges)
    horizon = _horizon(horizon_kind, m)
    rng = np.random.default_rng(seed)
    shocks = rng.normal(0.0, 2.0, (B, 7, horizon))
    if bad_shock is not None:
        shocks[int(rng.integers(B)), :, int(rng.integers(horizon))] = bad_shock
    args = _kernel_args(models, spec, shocks)
    with np.errstate(all="ignore"):
        want = oracle_ets_mul_paths_batch_numpy(*args)
        assert kernels.ets_mul_paths_batch(*args).tobytes() == want.tobytes()
        level0, trend0, seasonal0, alpha, beta, gamma, phi, ut, period, start, __ = args
        for i in range(B):
            row = (
                level0[i], trend0[i], seasonal0[i], alpha[i], beta[i], gamma[i], phi[i],
                ut, period, int(start[i]), shocks[i],
            )
            assert kernels.ets_mul_paths(*row).tobytes() == want[i].tobytes()
            assert oracle_ets_mul_paths_numpy(*row).tobytes() == want[i].tobytes()


# ---------------------------------------------------------------------------
# The shared draw.
# ---------------------------------------------------------------------------
def test_scaled_draw_is_the_generators_normal():
    sigma = np.array([0.0, 1.7, 5e-324, 1e300, np.inf, np.nan])
    shocks = ets._mul_shocks(sigma, 13)
    for i, s in enumerate(sigma):
        drawn = np.random.default_rng(1234).normal(0.0, s, size=(500, 13))
        assert shocks[i].tobytes() == drawn.tobytes()


def test_negative_zero_sigma_raises_like_the_generator():
    # sqrt(-0.0) is -0.0, which the generator rejects as a negative scale;
    # a NaN scale (even with its sign bit set) passes through.
    __, (model, other) = _cohort(5, 2, 24, True, False, ())
    model.sigma2 = -0.0
    damp = np.empty((2, 0))
    with pytest.raises(ValueError, match="scale < 0"):
        oracle_cohort_forecast_std([other, model], model.spec, 25, damp)
    with pytest.raises(ValueError, match="scale < 0"):
        ets._cohort_forecast_std([other, model], model.spec, 25, damp)
    with pytest.raises(ValueError, match="scale < 0"):
        oracle_forecast_std(model, 25)
    with pytest.raises(ValueError, match="scale < 0"):
        model.forecast(25)
    model.sigma2 = -1.0
    with np.errstate(invalid="ignore"):
        got = ets._cohort_forecast_std([other, model], model.spec, 25, damp)
        want = oracle_cohort_forecast_std([other, model], model.spec, 25, damp)
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got[1]).all()


def test_unit_draw_is_read_only_and_each_horizon_its_own():
    # Interleaved horizons, shorter and longer than any drawn before.
    for horizon in (25, 7, 60, 25, 1, 192, 24):
        unit = ets._unit_shocks(horizon)
        assert not unit.flags.writeable
        fresh = np.random.default_rng(1234).standard_normal((500, horizon))
        assert unit.tobytes() == fresh.tobytes()
    with pytest.raises(ValueError):
        unit[0, 0] = 1.0
    assert ets._unit_shocks(24).tobytes() == fresh.tobytes()
