"""Scheduler → repository persistence: one transaction per flush.

The scheduler batches every closed window of a tick into a single
``executemany`` transaction (and every selection run's winners into
another) instead of a write per row; failures are survivable and
counted, never fatal to the tick.
"""

import numpy as np

from repro.agent import AgentSample, MetricsRepository
from repro.core import Frequency
from repro.selection import AutoConfig
from repro.service import EstatePlanner, SelectionCache
from repro.stream import StreamConfig, StreamRuntime

STEP = 900.0


def polls(n_hours, value=40.0, instance="db1", metric="cpu"):
    return [
        AgentSample(
            instance=instance,
            metric=metric,
            timestamp=i * STEP,
            value=float(value + 10 * np.sin(i / 4)),
        )
        for i in range(int(n_hours * 4))
    ]


def runtime(repository):
    return StreamRuntime(
        planner=EstatePlanner(
            config=AutoConfig(technique="hes", n_jobs=1), cache=SelectionCache()
        ),
        config=StreamConfig(
            thresholds={"cpu": 100.0}, min_observations=24, seed=7, batch_polls=64
        ),
        repository=repository,
    )


class TestWindowPersistence:
    def test_windows_flushed_and_readable(self, stub_selection):
        repo = MetricsRepository.open("sqlite://")
        rt = runtime(repo)
        rt.run(polls(48))
        rt.finish()
        trace = rt.telemetry()
        assert trace.counters["repository_windows_persisted"] == 48
        series = repo.load_series("db1", "cpu", frequency=Frequency.HOURLY)
        assert len(series) == 48
        # the stored hourly values equal the stream's own aggregation
        np.testing.assert_array_equal(
            series.values, rt.aggregator.series("db1", "cpu").values
        )

    def test_one_transaction_per_flush(self, stub_selection):
        """Writes are batched: transactions ≤ ticks with windows, not rows."""

        class CountingRepo(MetricsRepository):
            def __init__(self):
                super().__init__()
                self.window_txns = 0

            def store_windows(self, windows):
                self.window_txns += 1
                return super().store_windows(windows)

        repo = CountingRepo()
        rt = runtime(repo)
        rt.run(polls(48))
        rt.finish()
        persisted = rt.telemetry().counters["repository_windows_persisted"]
        assert persisted == 48
        assert repo.window_txns < persisted  # strictly batched

    def test_nan_windows_skipped_not_fatal(self, stub_selection):
        """A whole-hour gap aggregates to NaN; it is skipped on write
        (NOT NULL schema) and re-derived as a gap on read."""
        gap = [s for s in polls(48) if not (24 * 4 <= s.timestamp / STEP < 25 * 4)]
        repo = MetricsRepository.open("sqlite://")
        rt = runtime(repo)
        rt.run(gap)
        rt.finish()
        assert rt.telemetry().counters["repository_windows_persisted"] == 47
        series = repo.load_series("db1", "cpu", frequency=Frequency.HOURLY)
        assert len(series) == 48
        assert np.isnan(series.values[24])

    def test_flush_failure_is_survivable_and_counted(self, stub_selection):
        class FailingRepo(MetricsRepository):
            def store_windows(self, windows):
                raise RuntimeError("disk on fire")

            def store_models(self, records):
                raise RuntimeError("disk on fire")

        rt = runtime(FailingRepo())
        rt.run(polls(48))
        rt.finish()
        trace = rt.telemetry()
        assert trace.faults["repository_flush_failures"] > 0
        assert trace.counters.get("repository_windows_persisted", 0) == 0
        # the stream itself kept going
        assert trace.counters["windows_closed"] == 48


class TestModelPersistence:
    def test_selected_models_flushed(self, stub_selection):
        repo = MetricsRepository.open("sqlite://")
        rt = runtime(repo)
        rt.run(polls(48) + polls(48, value=60.0, instance="db2"))
        rt.finish()
        assert rt.telemetry().counters["repository_models_persisted"] >= 2
        for instance in ("db1", "db2"):
            record = repo.load_model(instance, "cpu")
            assert record is not None
            assert record.label == "flat"
            assert record.spec == {"technique": "hes"}

    def test_no_repository_means_no_persistence_counters(self, stub_selection):
        rt = runtime(None)
        rt.run(polls(48))
        rt.finish()
        trace = rt.telemetry()
        assert "repository_windows_persisted" not in trace.counters
        assert "repository_models_persisted" not in trace.counters
