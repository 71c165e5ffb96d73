"""End-to-end tests for the streaming runtime loop.

The selection grid is stubbed with a cheap flat model (as in the
scheduler tests) so the loop's plumbing — delivery mangling, watermark
batching, staleness refits, alert escalation, telemetry — is what's
under test, at interactive speed.
"""

import numpy as np
import pytest

from repro.agent import AgentSample, MetricsRepository
from repro.exceptions import DataError
from repro.selection import AutoConfig
from repro.service import EstatePlanner
from repro.stream import AlertKind, StreamConfig, StreamRuntime

STEP = 900.0
HOUR = 3600.0


def polls(n_hours, value=40.0, start_hour=0, instance="db1", metric="cpu"):
    return [
        AgentSample(
            instance=instance,
            metric=metric,
            timestamp=(start_hour * 4 + i) * STEP,
            value=float(value),
        )
        for i in range(int(n_hours * 4))
    ]


def shocked_stream():
    """24 quiet hours at 40, then 24 shocked hours at 200."""
    return polls(24, value=40.0) + polls(24, value=200.0, start_hour=24)


def runtime(stream_config=None, planner=None):
    return StreamRuntime(
        planner=planner
        or EstatePlanner(config=AutoConfig(technique="hes", n_jobs=1)),
        config=stream_config
        or StreamConfig(
            thresholds={"cpu": 100.0},
            jitter_seconds=600.0,
            duplicate_rate=0.1,
            batch_polls=16,
            raise_after=2,
            recover_after=2,
            min_observations=24,
            seed=7,
        ),
    )


class TestDeliveryModel:
    def test_delivery_is_deterministic_per_seed(self):
        samples = polls(6)
        first = runtime().delivery_order(samples)
        second = runtime().delivery_order(samples)
        assert [s.timestamp for s in first] == [s.timestamp for s in second]

    def test_delivery_injects_duplicates_and_reorders(self):
        samples = polls(12)
        mangled = runtime().delivery_order(samples)
        assert len(mangled) > len(samples)  # 10% duplicate rate over 48 polls
        order = [s.timestamp for s in mangled]
        assert order != sorted(order)  # jitter reordered something

    def test_empty_delivery(self):
        assert runtime().delivery_order([]) == []

    def test_chunked_feeds_draw_fresh_delivery_noise(self):
        """Successive delivery_order calls on ONE runtime must not replay
        the identical jitter/duplicate pattern (regression: the RNG was
        re-seeded per call, correlating noise across chunks)."""
        samples = polls(6)
        rt = runtime()
        first = rt.delivery_order(samples)
        second = rt.delivery_order(samples)
        assert first != second
        # A fresh runtime with the same seed still replays the sequence.
        assert runtime().delivery_order(samples) == first

    def test_run_requires_samples(self):
        with pytest.raises(DataError):
            runtime().run([])


class TestEndToEnd:
    def test_shock_is_detected_refit_and_alerted(self, stub_selection):
        rt = runtime()
        rt.run(shocked_stream())
        rt.finish()

        # The quiet day produced the initial model, the shock forced
        # degradation refits on the same key.
        assert stub_selection[0] == "db1.cpu"
        assert rt.trace.counters["stream_initial_selections"] == 1
        assert rt.trace.counters["stream_refits_triggered"] >= 1
        reasons = {event.reason for event in rt.scheduler.refit_log}
        assert "initial" in reasons
        assert "cusum drift trip" in reasons

        # Once the flat level crosses 100, consecutive breaching ticks
        # raise a debounced alert.
        assert rt.events, "the shock should have raised an alert"
        assert rt.events[0].kind is AlertKind.RAISED
        assert rt.alerts.active_alerts(), "breach persists to the end"

    def test_quiet_stream_never_alerts(self, stub_selection):
        rt = runtime()
        rt.run(polls(30, value=40.0))
        rt.finish()
        assert rt.events == []
        assert rt.alerts.active_alerts() == {}
        assert rt.trace.counters["stream_advisories_graded"] > 0

    def test_windows_match_batch_despite_mangling(self, stub_selection):
        """Jitter (600s) stays inside the lateness budget (1800s), so the
        mangled stream aggregates to the exact hourly values."""
        rt = runtime()
        rt.run(shocked_stream())
        rt.finish()
        series = rt.aggregator.series("db1", "cpu")
        assert len(series) == 48
        assert np.allclose(series.values[:24], 40.0)
        assert np.allclose(series.values[24:], 200.0)
        assert rt.bus.counters.get("samples_late_dropped", 0) == 0
        assert rt.bus.counters.get("samples_duplicate", 0) > 0

    def test_finish_flushes_trailing_windows(self, stub_selection):
        rt = runtime()
        rt.run(polls(6))
        closed_before = rt.aggregator.counters.get("windows_closed", 0)
        rt.finish()
        assert rt.aggregator.counters["windows_closed"] > closed_before
        assert rt.bus.buffered == 0


class TestBootstrap:
    def test_seed_from_repository_resumes_stream(self, stub_selection):
        with MetricsRepository() as repo:
            repo.ingest(polls(24, value=40.0))
            rt = runtime()
            rt.seed_from_repository(repo, "db1", "cpu")
        assert len(rt.scheduler.history("db1", "cpu")) == 24
        # Resume with live polls continuing the stored clock.
        rt.run(polls(8, value=40.0, start_hour=24))
        rt.finish()
        assert rt.trace.counters["stream_initial_selections"] == 1
        assert len(rt.scheduler.history("db1", "cpu")) == 32


class TestTelemetry:
    def test_telemetry_merges_every_layer(self, stub_selection):
        rt = runtime()
        rt.run(shocked_stream())
        rt.finish()
        counters = rt.telemetry().counters
        assert counters["samples_accepted"] == 192
        assert counters["windows_closed"] == 48
        assert counters["stream_ticks"] == rt.ticks
        assert counters["stream_selection_runs"] >= 1
        assert counters["alerts_raised"] >= 1

    def test_summary_lines_cover_the_four_layers(self, stub_selection):
        rt = runtime()
        rt.run(polls(26))
        rt.finish()
        lines = rt.summary_lines()
        assert len(lines) == 4
        prefixes = [line.split(":")[0] for line in lines]
        assert prefixes == ["ingest", "windows", "models", "alerts"]


class TestHistoryCap:
    def test_capped_runtime_keeps_cap_windows_in_both_copies(self, stub_selection):
        """history_cap bounds the aggregator's window copy as well as the scheduler's."""
        cap = 30
        config = StreamConfig(
            thresholds={"cpu": 100.0},
            jitter_seconds=600.0,
            duplicate_rate=0.1,
            min_observations=24,
            history_cap=cap,
            seed=7,
        )
        rt = runtime(config)
        hours = cap + 90
        rt.run(polls(hours, instance="db1") + polls(hours, value=55.0, instance="db2"))
        for instance in ("db1", "db2"):
            history = rt.scheduler.history(instance, "cpu")
            windows = rt.aggregator.series(instance, "cpu")
            assert len(history) == len(windows) == cap
            assert windows.start == history.start
            assert np.array_equal(windows.values, history.values)
            # The last hour is still open; every earlier one was counted.
            assert rt.aggregator.windows_closed(instance, "cpu") == hours - 1
        assert rt.aggregator.counters["windows_closed"] == 2 * (hours - 1)

        # A capped key migrates whole and keeps closing windows in step.
        moved = runtime(config)
        moved.adopt_key("db1", "cpu", rt.export_key("db1", "cpu"))
        assert rt.export_key("db1", "cpu") == moved.export_key("db1", "cpu")
        more = polls(6, value=60.0, start_hour=hours, instance="db1")
        rt.run(more)
        moved.run(more)
        for rt_ in (rt, moved):
            rt_.finish()
        for layer in ("aggregator", "scheduler"):
            read = "series" if layer == "aggregator" else "history"
            a = getattr(getattr(rt, layer), read)("db1", "cpu")
            b = getattr(getattr(moved, layer), read)("db1", "cpu")
            assert len(a) == len(b) == cap
            assert (a.start, a.values.tobytes()) == (b.start, b.values.tobytes())
        assert moved.aggregator.windows_closed("db1", "cpu") == hours + 6
