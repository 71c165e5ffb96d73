"""Tests for the stored-model staleness rules."""

import numpy as np
import pytest

from repro.core import Frequency, TimeSeries
from repro.exceptions import DataError
from repro.models import SeasonalNaive
from repro.selection import ModelMonitor, StalenessReason
from repro.selection.staleness import WEEK_SECONDS, staleness_verdict


@pytest.fixture
def fitted():
    rng = np.random.default_rng(0)
    t = np.arange(600)
    y = 50 + 10 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1, 600)
    return SeasonalNaive(24).fit(TimeSeries(y, Frequency.HOURLY))


class TestAgeRule:
    def test_fresh_model(self, fitted):
        monitor = ModelMonitor(model=fitted, baseline_rmse=1.5)
        verdict = monitor.check()
        assert not verdict.stale
        assert verdict.reason is StalenessReason.FRESH

    def test_week_expiry(self, fitted):
        monitor = ModelMonitor(model=fitted, baseline_rmse=1.5)
        verdict = monitor.check(now=fitted.train.end + WEEK_SECONDS + 1)
        assert verdict.stale
        assert verdict.reason is StalenessReason.EXPIRED

    def test_custom_expiry(self, fitted):
        monitor = ModelMonitor(model=fitted, baseline_rmse=1.5, max_age_seconds=3600)
        assert monitor.check(now=fitted.train.end + 3601).stale

    def test_fitted_at_defaults_to_train_end(self, fitted):
        monitor = ModelMonitor(model=fitted, baseline_rmse=1.0)
        assert monitor.fitted_at == fitted.train.end


class TestDegradationRule:
    def test_good_observations_stay_fresh(self, fitted):
        monitor = ModelMonitor(model=fitted, baseline_rmse=1.5)
        forecast = fitted.forecast(24).mean.values
        monitor.observe(forecast + np.random.default_rng(1).normal(0, 1, 24))
        verdict = monitor.check()
        assert not verdict.stale
        assert verdict.current_rmse < 3.0

    def test_bad_observations_trigger_degraded(self, fitted):
        monitor = ModelMonitor(model=fitted, baseline_rmse=1.5, degradation_factor=2.0)
        forecast = fitted.forecast(6).mean.values
        monitor.observe(forecast + 50.0)  # RMSE 50 >> 3.0
        verdict = monitor.check()
        assert verdict.stale
        assert verdict.reason is StalenessReason.DEGRADED

    def test_needs_minimum_observations(self, fitted):
        monitor = ModelMonitor(model=fitted, baseline_rmse=1.5)
        monitor.observe(fitted.forecast(2).mean.values + 100.0)
        # Only two observations: degradation rule not armed yet.
        assert not monitor.check().stale

    def test_all_nonfinite_batch_is_no_evidence(self, fitted):
        monitor = ModelMonitor(model=fitted, baseline_rmse=1.5)
        monitor.observe([np.nan, np.nan, np.inf])
        verdict = monitor.check()
        assert verdict.current_rmse is None
        assert verdict.reason is StalenessReason.FRESH
        # Later finite observations are scored against their own steps.
        monitor.observe(fitted.forecast(6).mean.values[3:] + 50.0)
        verdict = monitor.check()
        assert verdict.current_rmse == pytest.approx(50.0)
        assert verdict.reason is StalenessReason.DEGRADED

    def test_unscored_observations_do_not_arm_the_rule(self, fitted):
        # Three observations with nothing to score, then one far-off
        # finite one: a single scored pair is not enough evidence.
        monitor = ModelMonitor(model=fitted, baseline_rmse=1.5)
        monitor.observe([np.nan, np.nan, np.inf])
        monitor.observe([fitted.forecast(4).mean.values[3] + 50.0])
        verdict = monitor.check()
        assert monitor.n_observed == 4
        assert verdict.current_rmse == pytest.approx(50.0)
        assert verdict.reason is StalenessReason.FRESH

    def test_three_scored_points_arm_the_rule(self, fitted):
        monitor = ModelMonitor(model=fitted, baseline_rmse=1.5)
        forecast = fitted.forecast(5).mean.values
        monitor.observe([np.nan, forecast[1] + 50.0, np.inf, forecast[3] + 50.0])
        assert monitor.check().reason is StalenessReason.FRESH  # two scored
        monitor.observe([forecast[4] + 50.0])
        verdict = monitor.check()
        assert verdict.current_rmse == pytest.approx(50.0)
        assert verdict.reason is StalenessReason.DEGRADED

    def test_incremental_observe(self, fitted):
        monitor = ModelMonitor(model=fitted, baseline_rmse=1.5)
        forecast = fitted.forecast(10).mean.values
        monitor.observe(forecast[:5] + 40.0)
        monitor.observe(forecast[5:] + 40.0)
        assert monitor.n_observed == 10
        assert monitor.check().stale


class TestGrowthRule:
    def test_data_growth_triggers(self, fitted):
        monitor = ModelMonitor(model=fitted, baseline_rmse=1.5, growth_factor=0.1)
        horizon = int(0.11 * len(fitted.train))
        monitor.observe(fitted.forecast(horizon).mean.values)
        verdict = monitor.check()
        assert verdict.stale
        assert verdict.reason is StalenessReason.DATA_GROWTH


class TestRuleOrder:
    """One precedence for every caller: expiry, then accuracy, then growth."""

    @pytest.mark.parametrize(
        "age, degraded, observed, reason",
        [
            (WEEK_SECONDS + 1, True, 10, StalenessReason.EXPIRED),
            (WEEK_SECONDS, True, 10, StalenessReason.DEGRADED),
            (0.0, False, 5, StalenessReason.DATA_GROWTH),
            (0.0, False, 4, StalenessReason.FRESH),
        ],
        ids=["expiry-beats-trip", "trip-beats-growth", "growth", "fresh"],
    )
    def test_first_rule_wins(self, age, degraded, observed, reason):
        verdict = staleness_verdict(
            age_seconds=age,
            degraded=degraded,
            observed=observed,
            train_size=10,
            baseline_rmse=1.0,
        )
        assert verdict.reason is reason
        assert verdict.stale is (reason is not StalenessReason.FRESH)
        assert verdict.age_seconds == age


    @pytest.mark.parametrize(
        "signal", [StalenessReason.DRIFT, StalenessReason.ROLL_FAILED, StalenessReason.DEGRADED]
    )
    def test_accuracy_signal_names_the_verdict(self, signal):
        kwargs = dict(observed=10, train_size=10, baseline_rmse=1.0, signal=signal)
        assert staleness_verdict(age_seconds=0.0, degraded=True, **kwargs).reason is signal
        # The rule order is the same whichever signal fired.
        expired = staleness_verdict(age_seconds=WEEK_SECONDS + 1, degraded=True, **kwargs)
        assert expired.reason is StalenessReason.EXPIRED
        grown = staleness_verdict(age_seconds=0.0, degraded=False, **kwargs)
        assert grown.reason is StalenessReason.DATA_GROWTH

    def test_signal_must_be_an_accuracy_reason(self):
        with pytest.raises(DataError):
            staleness_verdict(
                age_seconds=0.0, degraded=True, observed=0, train_size=10,
                baseline_rmse=1.0, signal=StalenessReason.EXPIRED,
            )

class TestValidation:
    def test_negative_baseline_rejected(self, fitted):
        with pytest.raises(DataError):
            ModelMonitor(model=fitted, baseline_rmse=-1.0)

    def test_observe_shape_checked(self, fitted):
        monitor = ModelMonitor(model=fitted, baseline_rmse=1.0)
        with pytest.raises(DataError):
            monitor.observe(np.zeros((2, 2)))

    def test_observe_accepts_timeseries(self, fitted):
        monitor = ModelMonitor(model=fitted, baseline_rmse=1.0)
        follow_on = TimeSeries(
            fitted.forecast(5).mean.values,
            Frequency.HOURLY,
            start=fitted.train.end + 3600,
        )
        monitor.observe(follow_on)
        assert monitor.n_observed == 5

    def test_describe_readable(self, fitted):
        verdict = ModelMonitor(model=fitted, baseline_rmse=1.0).check()
        assert "ok" in verdict.describe() or "STALE" in verdict.describe()
