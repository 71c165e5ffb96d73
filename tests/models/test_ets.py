"""Tests for the exponential smoothing family (SES, Holt, Holt–Winters)."""

import numpy as np
import pytest

from repro.core import TimeSeries, rmse
from repro.exceptions import DataError, ModelError
from repro.models import Holt, HoltWinters, SimpleExpSmoothing


class TestSes:
    def test_flat_series_forecast(self):
        rng = np.random.default_rng(0)
        ts = TimeSeries(50.0 + rng.normal(0, 1, 300))
        fc = SimpleExpSmoothing().fit(ts).forecast(10)
        assert np.allclose(fc.mean.values, fc.mean.values[0])
        assert fc.mean.values[0] == pytest.approx(50.0, abs=1.0)

    def test_fixed_alpha_respected(self):
        rng = np.random.default_rng(1)
        ts = TimeSeries(rng.normal(0, 1, 200))
        fit = SimpleExpSmoothing(alpha=0.42).fit(ts)
        assert fit.alpha == 0.42

    def test_alpha_validation(self):
        with pytest.raises(ModelError):
            SimpleExpSmoothing(alpha=1.5)

    def test_high_alpha_for_random_walk(self):
        rng = np.random.default_rng(2)
        walk = TimeSeries(np.cumsum(rng.normal(0, 1, 500)))
        fit = SimpleExpSmoothing().fit(walk)
        assert fit.alpha > 0.7  # recent obs carry nearly all the weight

    def test_interval_growth(self):
        rng = np.random.default_rng(3)
        ts = TimeSeries(rng.normal(0, 1, 200))
        fc = SimpleExpSmoothing().fit(ts).forecast(10)
        widths = fc.upper.values - fc.lower.values
        assert widths[-1] >= widths[0]

    def test_label(self):
        rng = np.random.default_rng(4)
        fit = SimpleExpSmoothing().fit(TimeSeries(rng.normal(size=50)))
        assert fit.label() == "SES"


class TestHolt:
    def test_linear_trend_extrapolated(self):
        rng = np.random.default_rng(5)
        t = np.arange(300.0)
        ts = TimeSeries(10 + 0.5 * t + rng.normal(0, 0.5, 300))
        fc = Holt().fit(ts).forecast(20)
        expected = 10 + 0.5 * (300 + np.arange(1, 21))
        assert np.allclose(fc.mean.values, expected, atol=4.0)

    def test_damped_flattens(self):
        rng = np.random.default_rng(6)
        t = np.arange(300.0)
        ts = TimeSeries(10 + 0.5 * t + rng.normal(0, 0.5, 300))
        plain = Holt().fit(ts).forecast(100)
        damped = Holt(damped=True).fit(ts).forecast(100)
        assert damped.mean.values[-1] < plain.mean.values[-1]

    def test_labels(self):
        rng = np.random.default_rng(7)
        ts = TimeSeries(rng.normal(size=60))
        assert Holt().fit(ts).label() == "HLT"


class TestHoltWinters:
    def test_seasonal_pattern_learned(self, daily_series):
        train, test = daily_series.split(len(daily_series) - 24)
        fc = HoltWinters(period=24, seasonal="add").fit(train).forecast(24)
        assert rmse(test, fc.mean) < 2.5

    def test_trend_and_seasonality(self, trending_series):
        train, test = trending_series.split(len(trending_series) - 24)
        fc = HoltWinters(period=24, seasonal="add").fit(train).forecast(24)
        assert rmse(test, fc.mean) < 8.0
        assert fc.mean.values.mean() > train.values[:100].mean()  # trend followed

    def test_multiplicative_on_growing_amplitude(self):
        rng = np.random.default_rng(8)
        t = np.arange(600)
        level = 100 + 0.2 * t
        y = level * (1 + 0.2 * np.sin(2 * np.pi * t / 24)) + rng.normal(0, 1, 600)
        train, test = TimeSeries(y).split(576)
        add = HoltWinters(24, seasonal="add").fit(train).forecast(24)
        mul = HoltWinters(24, seasonal="mul").fit(train).forecast(24)
        assert rmse(test, mul.mean) < rmse(test, add.mean) * 1.2

    def test_multiplicative_interval_finite(self):
        rng = np.random.default_rng(9)
        t = np.arange(400)
        y = (100 + 0.1 * t) * (1 + 0.1 * np.sin(2 * np.pi * t / 24)) + rng.normal(0, 1, 400)
        fc = HoltWinters(24, seasonal="mul").fit(TimeSeries(y)).forecast(24)
        assert np.isfinite(fc.lower.values).all()
        assert np.all(fc.upper.values >= fc.lower.values)

    def test_seasonal_indices_repeat_in_forecast(self, daily_series):
        fc = HoltWinters(24, seasonal="add", trend=False).fit(daily_series).forecast(48)
        first_day = fc.mean.values[:24]
        second_day = fc.mean.values[24:]
        assert np.allclose(first_day, second_day, atol=1e-6)

    def test_smoothing_params_in_bounds(self, daily_series):
        fit = HoltWinters(24).fit(daily_series)
        for value in (fit.alpha, fit.beta, fit.gamma):
            assert 0.0 < value < 1.0

    def test_label_is_hes(self, daily_series):
        assert HoltWinters(24).fit(daily_series).label() == "HES"

    def test_validation(self):
        with pytest.raises(ModelError):
            HoltWinters(period=1)
        with pytest.raises(ModelError):
            HoltWinters(period=24, seasonal="bogus")
        with pytest.raises(ModelError):
            HoltWinters(period=24, trend=False, damped=True)

    def test_needs_two_seasons(self):
        with pytest.raises(DataError):
            HoltWinters(period=24).fit(TimeSeries(np.arange(30.0)))

    def test_rejects_missing(self):
        values = np.arange(120.0)
        values[5] = np.nan
        with pytest.raises(DataError):
            HoltWinters(period=24).fit(TimeSeries(values))

    def test_forecast_horizon_validation(self, daily_series):
        fit = HoltWinters(24).fit(daily_series)
        with pytest.raises(ModelError):
            fit.forecast(0)


class TestDampedClosedForm:
    """Regression pins for the closed-form damped-trend accumulation.

    ``_cohort_damp`` replaced an O(horizon²) nested accumulation; these tests
    recompute forecasts and interval widths with the former per-step loops
    and require exact agreement, so any drift in the closed form shows up
    as a pinned-value break.
    """

    @pytest.fixture(scope="class")
    def damped_fit(self):
        rng = np.random.default_rng(11)
        t = np.arange(300.0)
        ts = TimeSeries(20.0 + 0.4 * t + rng.normal(0, 0.5, 300))
        return Holt(damped=True).fit(ts)

    def test_point_forecast_matches_nested_accumulation(self, damped_fit):
        horizon = 60
        fc = damped_fit.forecast(horizon)
        mean_ref = np.empty(horizon)
        acc = 0.0
        for h in range(1, horizon + 1):
            acc += damped_fit.phi**h
            mean_ref[h - 1] = damped_fit.level + acc * damped_fit.trend
        np.testing.assert_allclose(fc.mean.values, mean_ref, rtol=1e-12)

    def test_interval_widths_match_nested_accumulation(self, damped_fit):
        from scipy import stats

        horizon = 60
        fc = damped_fit.forecast(horizon)
        acc = 0.0
        c_ref = np.empty(horizon)
        for j in range(1, horizon + 1):
            acc += damped_fit.phi**j
            c_ref[j - 1] = damped_fit.alpha + damped_fit.alpha * damped_fit.beta * acc
        var_sum = 0.0
        std_ref = np.empty(horizon)
        for h in range(1, horizon + 1):
            std_ref[h - 1] = np.sqrt(damped_fit.sigma2 * (1.0 + var_sum))
            var_sum += c_ref[h - 1] ** 2
        z = float(stats.norm.ppf(1.0 - fc.alpha / 2.0))
        np.testing.assert_allclose(
            fc.upper.values - fc.lower.values, 2.0 * z * std_ref, rtol=1e-10
        )

    def test_undamped_multipliers_are_linear(self):
        rng = np.random.default_rng(12)
        t = np.arange(200.0)
        fit = Holt().fit(TimeSeries(5.0 + 0.2 * t + rng.normal(0, 0.3, 200)))
        fc = fit.forecast(24)
        expected = fit.level + np.arange(1, 25, dtype=float) * fit.trend
        np.testing.assert_allclose(fc.mean.values, expected, rtol=1e-12)
