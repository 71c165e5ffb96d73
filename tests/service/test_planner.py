"""Integration tests for the CapacityPlanner facade."""

import numpy as np
import pytest

from repro.agent import AgentSample, MetricsRepository
from repro.core import Frequency, TimeSeries
from repro.core.metrics import rmse
from repro.exceptions import DataError
from repro.selection import AutoConfig
from repro.service import BreachSeverity, CapacityPlanner


def synthetic_metric(n=1100, seed=3, level=50.0, trend=0.03):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    values = (
        level + trend * t + 9.0 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1.2, n)
    )
    return TimeSeries(values, Frequency.HOURLY, name="cpu")


@pytest.fixture(scope="module")
def planner():
    p = CapacityPlanner(config=AutoConfig(n_jobs=0, detect_shock_calendar=False))
    p.ingest_series("db1", "cpu", synthetic_metric())
    return p


class TestIngest:
    def test_series_roundtrip(self, planner):
        stored = planner.series("db1", "cpu")
        assert len(stored) == 1100
        assert stored.frequency is Frequency.HOURLY

    def test_ingest_raw_samples(self):
        p = CapacityPlanner()
        samples = [
            AgentSample("db2", "cpu", i * 900.0, float(i)) for i in range(96)
        ]
        assert p.ingest(samples) == 96
        assert len(p.series("db2", "cpu")) == 24  # hourly aggregation

    def test_ingest_series_rejects_empty(self):
        p = CapacityPlanner()
        with pytest.raises(DataError):
            p.ingest_series("x", "cpu", TimeSeries([np.nan, np.nan]))


class TestShockRegressorWinner:
    """A winner with backup regressors is watched against its outcome's forecast."""

    @pytest.fixture(scope="class")
    def stocked(self):
        rng = np.random.default_rng(5)
        t = np.arange(1012)
        y = 50.0 + 8.0 * np.sin(2 * np.pi * t / 24) + rng.normal(0.0, 1.0, t.size)
        y[(t % 6) == 0] += 30.0  # a backup every 6 hours
        p = CapacityPlanner(config=AutoConfig(technique="sarimax", n_jobs=1, max_lag=4))
        p.ingest_series("db1", "iops", TimeSeries(y[:1008], Frequency.HOURLY, name="iops"))
        outcome = p.select_model("db1", "iops")
        assert outcome.uses_exog
        return p, outcome, y[1008:]

    def test_observe_scores_the_outcome_forecast(self, stocked):
        p, outcome, following = stocked
        verdict = p.observe("db1", "iops", following)
        assert verdict.current_rmse == rmse(following, outcome.forecast(4).mean.values)
        assert not verdict.stale

    def test_restored_winner_observes(self, stocked):
        p, __, following = stocked
        fresh = CapacityPlanner(repository=p.repository, config=p.config)
        restored = fresh.restore_model("db1", "iops")
        assert restored is not None and restored.uses_exog
        verdict = fresh.observe("db1", "iops", following)
        assert verdict.current_rmse == rmse(following, restored.forecast(4).mean.values)


class TestModelLifecycle:
    def test_select_model(self, planner):
        outcome = planner.select_model("db1", "cpu")
        assert np.isfinite(outcome.test_rmse)
        # The selection is persisted in the repository.
        record = planner.repository.load_model("db1", "cpu")
        assert record is not None
        assert record.rmse == outcome.test_rmse

    def test_model_cached(self, planner):
        first = planner.select_model("db1", "cpu")
        second = planner.select_model("db1", "cpu")
        assert first is second

    def test_force_retrains(self, planner):
        first = planner.select_model("db1", "cpu")
        second = planner.select_model("db1", "cpu", force=True)
        assert first is not second

    def test_observe_before_select_rejected(self, planner):
        with pytest.raises(DataError):
            planner.observe("db1", "memory", [1.0])

    def test_bad_observations_mark_stale(self, planner):
        planner.select_model("db1", "cpu", force=True)
        verdict = planner.observe("db1", "cpu", np.full(10, 10_000.0))
        assert verdict.stale

    def test_telemetry_exposed(self, planner):
        planner.select_model("db1", "cpu")
        trace = planner.telemetry("db1", "cpu")
        assert trace is not None
        assert "score" in trace.stage_seconds()
        assert trace.counters["candidates_fitted"] >= 1

    def test_telemetry_unknown_key_is_none(self, planner):
        assert planner.telemetry("nope", "cpu") is None

    def test_telemetry_merges_across_workloads(self, planner):
        planner.select_model("db1", "cpu")
        merged = planner.telemetry()
        per_key = planner.telemetry("db1", "cpu")
        assert merged is not None
        assert merged.counters["candidates_fitted"] >= per_key.counters["candidates_fitted"]

    def test_telemetry_rejects_half_a_key(self, planner):
        with pytest.raises(DataError):
            planner.telemetry(instance="db1")
        with pytest.raises(DataError):
            planner.telemetry(metric="cpu")

    def test_merged_telemetry_empty_planner_is_none(self):
        assert CapacityPlanner().telemetry() is None

    def test_selection_runs_on_planner_executor(self):
        from repro.engine import SerialExecutor

        class CountingExecutor(SerialExecutor):
            calls = 0

            def run(self, fn, tasks):
                type(self).calls += 1
                return super().run(fn, tasks)

        p = CapacityPlanner(
            config=AutoConfig(detect_shock_calendar=False),
            executor=CountingExecutor(),
        )
        p.ingest_series("db1", "cpu", synthetic_metric())
        p.select_model("db1", "cpu")
        assert CountingExecutor.calls >= 1


class TestForecastPlane:
    def test_forecast_default_horizon(self, planner):
        fc = planner.forecast("db1", "cpu")
        assert fc.horizon == 24
        assert np.all(fc.mean.values >= 0.0)  # clipped at the floor

    def test_threshold_advisory(self, planner):
        safe = planner.threshold_advisory("db1", "cpu", threshold=10_000.0)
        assert safe.severity is BreachSeverity.NONE
        doomed = planner.threshold_advisory("db1", "cpu", threshold=1.0)
        assert doomed.severity is not BreachSeverity.NONE

    def test_capacity_recommendation(self, planner):
        rec = planner.capacity_recommendation("db1", "cpu", unit=4.0)
        assert rec.recommended % 4.0 == 0.0
        assert rec.recommended >= rec.required


class TestRestore:
    def _stocked_repo(self, tmp_path, n=1100):
        from repro.agent import MetricsRepository

        path = str(tmp_path / "estate.db")
        repo = MetricsRepository(path)
        p = CapacityPlanner(
            repository=repo, config=AutoConfig(n_jobs=0, detect_shock_calendar=False)
        )
        p.ingest_series("db1", "cpu", synthetic_metric(n=n))
        return path, p

    def test_restore_roundtrip(self, tmp_path):
        from repro.agent import MetricsRepository

        path, p = self._stocked_repo(tmp_path)
        original = p.select_model("db1", "cpu")
        p.repository.close()

        fresh = CapacityPlanner(
            repository=MetricsRepository(path),
            config=AutoConfig(n_jobs=0, detect_shock_calendar=False),
        )
        restored = fresh.restore_model("db1", "cpu")
        assert restored is not None
        assert restored.best_spec == original.best_spec
        assert restored.test_rmse == original.test_rmse
        assert restored.n_evaluated == 0  # no grid search happened
        # And forecasting uses the restored model without re-selecting.
        fc = fresh.forecast("db1", "cpu")
        assert np.isfinite(fc.mean.values).all()

    def test_restore_nothing_stored(self, tmp_path):
        from repro.agent import MetricsRepository

        path = str(tmp_path / "empty.db")
        p = CapacityPlanner(repository=MetricsRepository(path))
        p.ingest_series("db1", "cpu", synthetic_metric())
        assert p.restore_model("db1", "cpu") is None

    def test_restore_expired_record_returns_none(self, tmp_path):
        from repro.agent import MetricsRepository

        path, p = self._stocked_repo(tmp_path)
        p.select_model("db1", "cpu")
        # Backdate the stored record beyond the weekly rule.
        record = p.repository.load_model("db1", "cpu")
        p.repository.store_model(
            "db1", "cpu",
            fitted_at=record.fitted_at - 9 * 24 * 3600,
            label=record.label, spec=record.spec, rmse=record.rmse,
        )
        assert p.restore_model("db1", "cpu") is None
