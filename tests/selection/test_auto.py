"""Tests for the Figure 4 auto-selection pipeline."""

import numpy as np
import pytest

from repro.core import Frequency, TimeSeries, rmse
from repro.exceptions import SelectionError
from repro.selection import AutoConfig, auto_forecast, auto_select


@pytest.fixture(scope="module")
def shocked_long():
    """1100 hourly points: daily cycle + trend + nightly shock."""
    rng = np.random.default_rng(7)
    t = np.arange(1100)
    y = (
        100.0
        + 0.05 * t
        + 12.0 * np.sin(2 * np.pi * t / 24)
        + rng.normal(0, 2.0, 1100)
    )
    y[(t % 24) == 5] += 45.0
    return TimeSeries(y, Frequency.HOURLY, name="cpu")


class TestAutoConfig:
    def test_technique_validated(self):
        with pytest.raises(SelectionError):
            AutoConfig(technique="magic")


class TestAutoSelect:
    def test_full_pipeline(self, shocked_long):
        outcome = auto_select(shocked_long, config=AutoConfig())
        assert outcome.test_rmse < 5.0
        assert outcome.n_evaluated > 10
        assert outcome.seasonality is not None
        assert 24 in outcome.seasonality.periods

    def test_shock_learned(self, shocked_long):
        outcome = auto_select(shocked_long, config=AutoConfig())
        assert outcome.shock_calendar is not None
        assert outcome.shock_calendar.n_columns >= 1
        assert outcome.shock_calendar.shocks[0].period == 24

    def test_hes_branch(self, shocked_long):
        outcome = auto_select(shocked_long, config=AutoConfig(technique="hes"))
        assert outcome.technique == "hes"
        assert outcome.model.label() == "HES"
        assert outcome.best_spec is None

    def test_sarimax_branch(self, shocked_long):
        outcome = auto_select(shocked_long, config=AutoConfig(technique="sarimax"))
        assert outcome.technique == "sarimax"
        assert outcome.best_spec is not None

    def test_auto_prefers_better_branch(self, shocked_long):
        outcome = auto_select(shocked_long, config=AutoConfig(technique="auto"))
        assert outcome.hes_rmse is not None
        if outcome.technique == "sarimax":
            assert outcome.test_rmse <= outcome.hes_rmse

    def test_missing_values_repaired(self, shocked_long):
        values = shocked_long.values.copy()
        values[50:55] = np.nan
        gappy = shocked_long.with_values(values)
        outcome = auto_select(gappy, config=AutoConfig(technique="hes"))
        assert np.isfinite(outcome.test_rmse)

    def test_explicit_split_honoured(self, shocked_long):
        train, test = shocked_long.split(1000)
        outcome = auto_select(shocked_long, config=AutoConfig(), train=train, test=test)
        assert np.isfinite(outcome.test_rmse)

    def test_short_series_fallback_split(self):
        rng = np.random.default_rng(8)
        t = np.arange(400)  # below the 1008 Table 1 budget
        y = 50 + 8 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1, 400)
        outcome = auto_select(TimeSeries(y, Frequency.HOURLY), config=AutoConfig())
        assert outcome.test_rmse < 3.0

    def test_leaderboard_sorted(self, shocked_long):
        outcome = auto_select(shocked_long, config=AutoConfig(technique="sarimax"))
        rmses = [r.rmse for r in outcome.leaderboard if not r.failed]
        assert rmses == sorted(rmses)

    def test_refit_on_full_extends_training(self, shocked_long):
        outcome = auto_select(
            shocked_long, config=AutoConfig(technique="sarimax", refit_on_full=True)
        )
        assert len(outcome.model.train) == len(shocked_long)

    def test_no_refit_keeps_train_window(self, shocked_long):
        outcome = auto_select(
            shocked_long, config=AutoConfig(technique="sarimax", refit_on_full=False)
        )
        assert len(outcome.model.train) == 984


class TestHesScoring:
    def test_variants_are_scored_on_the_point_forecast(self, shocked_long):
        from repro.models import kernels
        from repro.models.ets import HoltWinters

        train, test = shocked_long.train_test_split()
        # The ranking as it was made with full forecasts, bands included.
        scored = []
        for seasonal in ("add", "mul"):
            fitted = HoltWinters(24, seasonal=seasonal).fit(train)
            scored.append((rmse(test, fitted.forecast(len(test)).mean), seasonal))
        best_rmse, best_variant = min(scored)

        before = kernels.stats_snapshot()
        outcome = auto_select(shocked_long, config=AutoConfig(technique="hes"))
        after = kernels.stats_snapshot()
        for name in ("ets_mul_paths", "ets_mul_paths_batch"):
            assert after[f"kernel_{name}_calls"] == before[f"kernel_{name}_calls"]
        assert outcome.hes_rmse == best_rmse
        assert outcome.model.spec.seasonal == best_variant


class TestAutoForecast:
    def test_default_horizon_from_table1(self, shocked_long):
        forecast, outcome = auto_forecast(shocked_long, config=AutoConfig())
        assert forecast.horizon == 24

    def test_forecast_accuracy_vs_future(self):
        rng = np.random.default_rng(9)
        t = np.arange(1100 + 24)
        y = 100 + 10 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1.5, t.size)
        series = TimeSeries(y[:1100], Frequency.HOURLY)
        forecast, __ = auto_forecast(series, config=AutoConfig())
        assert rmse(y[1100:1124], forecast.mean.values) < 4.0

    def test_custom_horizon(self, shocked_long):
        forecast, __ = auto_forecast(shocked_long, horizon=48, config=AutoConfig())
        assert forecast.horizon == 48

    def test_shock_continued_into_future(self, shocked_long):
        forecast, outcome = auto_forecast(shocked_long, horizon=48, config=AutoConfig())
        if outcome.best_spec is not None and outcome.best_spec.exog_columns:
            # Shock fires at phase 5 of each day; forecast must spike there.
            phases = (1100 + np.arange(48)) % 24
            spike_hours = forecast.mean.values[phases == 5]
            quiet_hours = forecast.mean.values[phases == 7]
            assert spike_hours.mean() > quiet_hours.mean() + 10
