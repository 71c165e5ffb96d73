"""Incremental state rolls: ``advance`` moves the forecast origin, no refit.

Every fitted family that supports rolling must satisfy the same algebra:
advancing through a block of observations in chunks lands on exactly the
state (and innovation stream) that one big advance produces, the rolled
train grows by exactly the absorbed values, and the ETS cohort roll is
bit-identical to rolling each member alone — that last equivalence is
what lets the scheduler batch same-spec keys without changing a single
advisory byte.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Frequency, TimeSeries
from repro.exceptions import ModelError
from repro.models import Arima, HoltWinters, Sarimax, Tbats, kernels
from repro.models import arima
from repro.models.arima import ArimaOrder, FittedArima, SeasonalOrder
from repro.models.ets import advance_cohort, forecast_cohort_arrays


def _seasonal(seed, n, period=24):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return 100.0 + 0.05 * t + 12.0 * np.sin(2 * np.pi * t / period) + rng.normal(0, 1.5, n)


@pytest.fixture(scope="module")
def hw_fit():
    y = _seasonal(0, 400)
    return HoltWinters(period=24).fit(TimeSeries(y[:360])), y[360:]


@pytest.fixture(scope="module")
def tbats_fit():
    y = _seasonal(1, 480)
    model = Tbats(periods=[24], max_harmonics=2, try_boxcox=False, maxiter=60)
    return model.fit(TimeSeries(y[:456])), y[456:]


@pytest.fixture(scope="module")
def arima_fit():
    rng = np.random.default_rng(2)
    e = rng.normal(0, 1.0, 400)
    y = np.empty(400)
    y[0] = 0.0
    for t in range(1, 400):
        y[t] = 0.6 * y[t - 1] + e[t]
    return Arima((1, 0, 0)).fit(TimeSeries(50.0 + y[:380])), 50.0 + y[380:]


@pytest.fixture(scope="module")
def sarima_fit():
    # The serving estate's SARIMA: seasonally differenced, seasonal MA.
    y = _seasonal(3, 360)
    model = Arima((1, 0, 1), seasonal=(0, 1, 1, 24))
    return model.fit(TimeSeries(y[:336])), y[336:]


def _cache_free(model):
    """A copy of ``model`` that has computed neither lag polynomials nor rolled state."""
    copy = dataclasses.replace(model)
    assert copy._lags is None and copy._state is None
    return copy


def _assert_same_forecast(a, b):
    assert repr(a) == repr(b)
    for band in ("mean", "lower", "upper"):
        assert np.array_equal(getattr(a, band).values, getattr(b, band).values)


def _assert_same_model(a, b):
    assert repr(a.train) == repr(b.train)
    assert np.array_equal(a.train.values, b.train.values)
    assert a.train.end == b.train.end
    assert a.sigma2 == b.sigma2


class TestChunkedEqualsOneShot:
    def test_ets(self, hw_fit):
        fit, future = hw_fit
        one, innov_one = fit.advance(future[:12])
        two_a, innov_a = fit.advance(future[:5])
        two, innov_b = two_a.advance(future[5:12])
        _assert_same_model(one, two)
        assert one.level == two.level and one.trend == two.trend
        assert np.array_equal(one.seasonal_state, two.seasonal_state)
        assert np.array_equal(innov_one, np.concatenate([innov_a, innov_b]))
        assert repr(one.forecast(24)) == repr(two.forecast(24))

    def test_tbats(self, tbats_fit):
        fit, future = tbats_fit
        one, innov_one = fit.advance(future[:12])
        two_a, innov_a = fit.advance(future[:7])
        two, innov_b = two_a.advance(future[7:12])
        _assert_same_model(one, two)
        assert np.array_equal(innov_one, np.concatenate([innov_a, innov_b]))
        assert repr(one.forecast(24)) == repr(two.forecast(24))

    def test_arima(self, arima_fit, sarima_fit):
        # ARIMA innovations are block-relative (deviations from the
        # pre-roll forecast), so only the leading chunk matches the
        # one-shot stream — but the rolled model and its forecasts must
        # land on the same origin regardless of chunking.
        for fit, future in (arima_fit, sarima_fit):
            one, innov_one = fit.advance(future[:10])
            two_a, innov_a = fit.advance(future[:4])
            two, innov_b = two_a.advance(future[4:10])
            _assert_same_model(one, two)
            assert np.array_equal(innov_one[:4], innov_a)
            assert innov_b.shape == (6,)
            assert repr(one.forecast(24)) == repr(two.forecast(24))

        # The lag polynomials and ψ-weights are computed once per fit and
        # carried through every roll; after each chunk the rolled model
        # must forecast exactly like a copy that computes them afresh,
        # also for a short horizon asked after a long one (a slice of
        # the cached ψ vector).
        fit, future = sarima_fit
        model = fit
        for lo, hi in ((0, 1), (1, 4), (4, 5), (5, 12), (12, 24)):
            fresh, innov_fresh = _cache_free(model).advance(future[lo:hi])
            model, innov = model.advance(future[lo:hi])
            assert model._lags is fit._lags
            assert np.array_equal(innov, innov_fresh)
            for horizon in (24, 1):
                _assert_same_forecast(model.forecast(horizon), _cache_free(model).forecast(horizon))
            _assert_same_forecast(model.forecast(3), fresh.forecast(3))
        assert fit._lags.psi.size >= 24
        # New coefficients on the same object rebuild the polynomials.
        tweaked = _cache_free(model)
        tweaked.forecast(24)
        tweaked.coeffs = tweaked.coeffs * 0.5
        _assert_same_forecast(tweaked.forecast(24), _cache_free(tweaked).forecast(24))
        # A refit has new coefficients and starts without a cache.
        refit = Arima((1, 0, 1), seasonal=(0, 1, 1, 24)).fit(model.train)
        assert refit._lags is None and refit._state is None
        refit.forecast(24)
        assert refit._lags is not fit._lags
        assert refit._lags.coeffs is refit.coeffs
        # A reassigned series rebuilds the rolled state from it.
        moved = _cache_free(model)
        moved.forecast(24)
        moved.train = fit.train
        _assert_same_forecast(moved.forecast(24), _cache_free(fit).forecast(24))

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.integers(0, 2),
        d=st.integers(0, 1),
        q=st.integers(0, 2),
        P=st.integers(0, 1),
        D=st.integers(0, 1),
        Q=st.integers(0, 1),
        F=st.sampled_from([2, 4, 7]),
        intercept=st.sampled_from([0.0, 0.7]),
        chunks=st.lists(st.integers(1, 5), min_size=1, max_size=8),
        seed=st.integers(0, 2**16),
    )
    def test_arima_rolled_state(self, p, d, q, P, D, Q, F, intercept, chunks, seed):
        # The rolled state is only a faster route to the same numbers: after
        # every chunk, forecasts and the next chunk's innovations are bit
        # for bit those of a model rebuilt on the extended series with the
        # same coefficients, which re-filters the whole history.
        rng = np.random.default_rng(seed)
        order, seasonal = ArimaOrder(p, d, q), SeasonalOrder(P, D, Q, F)
        n = 40 + 3 * F
        y = 50.0 + np.cumsum(rng.normal(0.0, 1.0, n + sum(chunks)))
        model = FittedArima(
            train=TimeSeries(y[:n], Frequency.HOURLY, start=3600.0 * seed),
            residuals=rng.normal(0.0, 1.0, n),
            sigma2=float(rng.uniform(0.5, 2.0)),
            n_params=p + q + P + Q + 1,
            order=order,
            seasonal=seasonal,
            coeffs=rng.uniform(-0.45, 0.45, p + q + P + Q),
            intercept=intercept,
        )
        pos = n
        for size in chunks:
            block = y[pos : pos + size]
            pos += size
            fresh, innov_fresh = _cache_free(model).advance(block)
            model, innov = model.advance(block)
            assert np.array_equal(innov, innov_fresh)
            assert np.array_equal(model.residuals, fresh.residuals)
            _assert_same_model(model, fresh)
            for horizon in (1, 9):
                _assert_same_forecast(model.forecast(horizon), _cache_free(model).forecast(horizon))
        assert len(model.train) == pos


def _sarima_cohort(size, seed=7):
    """``size`` SARIMA (1,0,1)(0,1,1,24) fits of one order, at distinct states.

    Each member gets its own series, coefficients, noise variance and
    intercept, and some have rolled, so no two rows share a state.
    """
    rng = np.random.default_rng(seed)
    base = Arima((1, 0, 1), seasonal=(0, 1, 1, 24)).fit(TimeSeries(_seasonal(seed, 336)))
    members = []
    for i in range(size):
        y = _seasonal(seed + 1 + i, 360) + rng.uniform(-10.0, 10.0)
        member = dataclasses.replace(
            base,
            train=TimeSeries(y[:336]),
            coeffs=base.coeffs * rng.uniform(0.8, 1.1, base.coeffs.size),
            sigma2=base.sigma2 * rng.uniform(0.5, 2.0),
            intercept=float(rng.choice([0.0, rng.normal()])),
        )
        for __ in range(i % 3):
            member, __ = member.advance(y[len(member.train) : len(member.train) + 2])
        members.append(member)
    return members


class TestArimaCohort:
    @pytest.mark.parametrize("size", [1, 3, 17])
    def test_rows_match_forecast(self, size):
        self._check(_sarima_cohort(size), horizon=24)

    @pytest.mark.skipif(not kernels.NUMBA_AVAILABLE, reason="numba is not installed")
    @pytest.mark.parametrize("size", [1, 3, 17])
    def test_rows_match_forecast_on_numba(self, size):
        before = kernels.active_backend()
        kernels.set_backend("numba")
        try:
            self._check(_sarima_cohort(size), horizon=24)
        finally:
            kernels.set_backend(before)

    @staticmethod
    def _check(models, horizon):
        mean, lower, upper = arima.forecast_cohort_arrays(models, horizon)
        assert mean.shape == lower.shape == upper.shape == (len(models), horizon)
        for i, model in enumerate(models):
            fc = _cache_free(model).forecast(horizon)
            assert np.array_equal(mean[i], fc.mean.values)
            assert np.array_equal(lower[i], fc.lower.values)
            assert np.array_equal(upper[i], fc.upper.values)
            assert repr(model.forecast(horizon)) == repr(fc)

    def test_mixed_orders_and_regression_fits_rejected(self):
        (sarima,) = _sarima_cohort(1)
        plain = Arima((1, 0, 0)).fit(sarima.train)
        with pytest.raises(ModelError):
            arima.forecast_cohort_arrays([sarima, plain], 4)
        fourier = Sarimax(
            (1, 0, 1), seasonal=(0, 1, 1, 24), fourier_periods=[168], fourier_orders=[1]
        ).fit(sarima.train)
        with pytest.raises(ModelError):
            arima.forecast_cohort_arrays([fourier], 4)
        with pytest.raises(ModelError):
            arima.forecast_cohort_arrays([sarima], 0)


class TestRollSemantics:
    def test_train_extends_and_origin_moves(self, hw_fit):
        fit, future = hw_fit
        rolled, innov = fit.advance(future[:6])
        assert len(rolled.train) == len(fit.train) + 6
        assert np.array_equal(rolled.train.values[-6:], future[:6])
        step = fit.train.frequency.seconds
        assert rolled.train.end == fit.train.end + 6 * step
        assert innov.shape == (6,)

    def test_arima_first_innovation_is_one_step_error(self, arima_fit):
        fit, future = arima_fit
        point = fit.forecast(1).mean.values[0]
        __, innov = fit.advance(future[:1])
        # Step one is exact (psi_0 = 1): the innovation is the one-step
        # forecast error in observation units.
        assert innov[0] == pytest.approx(future[0] - point, rel=1e-9)

    def test_tbats_rejects_nonfinite(self, tbats_fit):
        fit, __ = tbats_fit
        with pytest.raises(ModelError):
            fit.advance(np.array([1.0, np.nan]))

    def test_tbats_boxcox_rejects_nonpositive(self):
        y = _seasonal(5, 480)
        model = Tbats(periods=[24], max_harmonics=1, try_boxcox=True, maxiter=40)
        fit = model.fit(TimeSeries(y[:456]))
        if fit.boxcox_lambda is None:
            pytest.skip("fit did not choose a Box-Cox transform")
        with pytest.raises(ModelError):
            fit.advance(np.array([-5.0]))


class TestEtsCohort:
    def _members(self, n_keys=4):
        fits = []
        futures = []
        for k in range(n_keys):
            y = _seasonal(10 + k, 400)
            fits.append(HoltWinters(period=24).fit(TimeSeries(y[:360])))
            futures.append(y[360:])
        return fits, futures

    def test_cohort_roll_matches_per_key(self):
        fits, futures = self._members()
        block = np.stack([f[:8] for f in futures])
        rolled, innov = advance_cohort(fits, block)
        assert innov.shape == (len(fits), 8)
        for i, fit in enumerate(fits):
            solo, solo_innov = fit.advance(block[i])
            assert np.array_equal(innov[i], solo_innov)
            _assert_same_model(rolled[i], solo)
            assert rolled[i].level == solo.level
            assert rolled[i].trend == solo.trend
            assert np.array_equal(rolled[i].seasonal_state, solo.seasonal_state)
            assert repr(rolled[i].forecast(24)) == repr(solo.forecast(24))

    def test_cohort_forecast_matches_per_key(self):
        fits, __ = self._members()
        mean, lower, upper = forecast_cohort_arrays(fits, 24)
        for i, fit in enumerate(fits):
            fc = fit.forecast(24)
            assert np.array_equal(mean[i], fc.mean.values)
            assert np.array_equal(lower[i], fc.lower.values)
            assert np.array_equal(upper[i], fc.upper.values)

    def test_cohort_of_one_matches_per_key(self):
        fits, futures = self._members(1)
        rolled, innov = advance_cohort(fits, futures[0][:4][None, :])
        solo, solo_innov = fits[0].advance(futures[0][:4])
        assert np.array_equal(innov[0], solo_innov)
        _assert_same_model(rolled[0], solo)

    def test_mixed_spec_cohort_rejected(self):
        y = _seasonal(20, 400)
        hw = HoltWinters(period=24).fit(TimeSeries(y[:360]))
        hw12 = HoltWinters(period=12).fit(TimeSeries(y[:360]))
        with pytest.raises(ModelError):
            advance_cohort([hw, hw12], np.zeros((2, 4)))
