"""Tests for the streaming forecast scheduler.

Real selections are expensive, so these tests monkeypatch the estate's
``auto_select`` with a cheap flat-forecast model and *count the calls* —
the acceptance criteria here are about the lifecycle (when selection
runs, when the cache spares it), not about model quality.
"""

import numpy as np
import pytest

from repro.core import Frequency, TimeSeries
from repro.exceptions import DataError
from repro.selection import AutoConfig
from repro.selection.staleness import WEEK_SECONDS, StalenessReason
from repro.service import EstatePlanner, WorkloadStatus
from repro.service.thresholds import BreachSeverity
from repro.stream import ClosedWindow, ForecastScheduler, ManualClock

HOUR = 3600.0


@pytest.fixture
def calls(stub_selection):
    """The names of the series selected so far (selection is stubbed)."""
    return stub_selection


def windows(values, start_hour=0, instance="db1", metric="cpu"):
    return [
        ClosedWindow(
            instance=instance,
            metric=metric,
            start=(start_hour + i) * HOUR,
            value=float(v),
            n_samples=4,
            expected=4,
        )
        for i, v in enumerate(values)
    ]


def scheduler(calls=None, thresholds=None, min_observations=24, **kwargs):
    planner = EstatePlanner(config=AutoConfig(technique="hes", n_jobs=1))
    return (
        ForecastScheduler(
            planner,
            thresholds=thresholds or {},
            min_observations=min_observations,
            clock=ManualClock(),
            **kwargs,
        ),
        planner,
    )


class TestLifecycle:
    def test_no_selection_before_min_observations(self, calls):
        sched, __ = scheduler(calls)
        tick = sched.on_windows(windows([50.0] * 23))
        assert tick.refits == [] and calls == []

    def test_initial_selection_at_min_observations(self, calls):
        sched, planner = scheduler(calls)
        tick = sched.on_windows(windows([50.0] * 24))
        assert [e.reason for e in tick.refits] == ["initial"]
        assert calls == ["db1.cpu"]
        key = sched.workload_key("db1", "cpu")
        assert planner.entry(key).status is WorkloadStatus.MODELLED
        assert tick.report is not None

    def test_keys_selected_independently(self, calls):
        sched, __ = scheduler(calls)
        batch = windows([50.0] * 24) + windows([10.0] * 12, metric="memory")
        tick = sched.on_windows(batch)
        assert len(tick.refits) == 1  # memory is still short
        tick = sched.on_windows(windows([10.0] * 12, start_hour=12, metric="memory"))
        assert [e.key.metric for e in tick.refits] == ["memory"]
        assert len(calls) == 2

    def test_window_continuity_enforced(self, calls):
        sched, __ = scheduler(calls)
        sched.on_windows(windows([50.0] * 4))
        with pytest.raises(DataError):
            sched.on_windows(windows([50.0], start_hour=9))  # hours 4..8 missing

    def test_history_readback(self, calls):
        sched, __ = scheduler(calls)
        sched.on_windows(windows([1.0, 2.0, 3.0]))
        series = sched.history("db1", "cpu")
        assert np.allclose(series.values, [1.0, 2.0, 3.0])
        assert series.frequency is Frequency.HOURLY
        with pytest.raises(DataError):
            sched.history("db1", "nope")


class TestStalenessRefit:
    def test_rmse_degradation_triggers_reselection(self, calls):
        sched, planner = scheduler(calls)
        sched.on_windows(windows([50.0] * 24))
        assert len(calls) == 1
        key = sched.workload_key("db1", "cpu")
        first = planner.entry(key).outcome
        statuses = []
        report = planner.report
        planner.report = lambda **kw: [statuses.append(planner.entry(key).status), report(**kw)][1]
        # The flat model predicts ~50; feed a shock far beyond 2x baseline.
        tick = sched.on_windows(windows([500.0] * 3, start_hour=24))
        assert len(calls) == 2  # re-selected on the refreshed series
        assert [e.reason for e in tick.refits] == [StalenessReason.DRIFT.value]
        assert sched.refit_log[-1].reason == StalenessReason.DRIFT.value
        assert sched.trace.counters["stream_refits_triggered"] == 1
        # The stale verdict evicted the cache record once and left the
        # entry pending; the report then missed the cache and re-selected.
        assert planner.cache.invalidations == 1
        assert statuses == [WorkloadStatus.PENDING]
        assert tick.report.trace.counters["selection_cache_misses"] == 1
        assert planner.entry(key).status is WorkloadStatus.MODELLED
        assert planner.entry(key).outcome is not first

    def test_failed_roll_reselects_as_degraded(self, calls, monkeypatch):
        sched, planner = scheduler(calls)
        sched.on_windows(windows([50.0] * 24))
        key = sched.workload_key("db1", "cpu")
        first = planner.entry(key).outcome

        def broken(values):
            raise FloatingPointError("sick filter state")

        monkeypatch.setattr(first.model, "advance", broken)
        tick = sched.on_windows(windows([50.0], start_hour=24))
        assert tick.verdicts[key].reason is StalenessReason.ROLL_FAILED
        assert [e.reason for e in tick.refits] == [StalenessReason.ROLL_FAILED.value]
        assert len(calls) == 2
        # Re-selected, not restarted from the old fit: the next roll starts
        # a chain from the new outcome.
        assert planner.entry(key).outcome is not first
        sched.on_windows(windows([50.0], start_hour=25))
        live = sched._live[sched.key_table.id_of("db1", "cpu")]
        assert live.source is planner.entry(key).outcome
        assert live.model.train.end == 25 * HOUR

    def test_fresh_model_not_refit(self, calls):
        sched, __ = scheduler(calls)
        sched.on_windows(windows([50.0] * 24))
        tick = sched.on_windows(windows([50.0] * 3, start_hour=24))
        assert len(calls) == 1
        assert tick.refits == []
        verdict = next(iter(tick.verdicts.values()))
        assert not verdict.stale

    def test_data_growth_triggers_reselection(self, calls):
        sched, __ = scheduler(calls)
        sched.on_windows(windows([50.0] * 24))
        # 50% growth over the 24-observation training window.
        tick = sched.on_windows(windows([50.0] * 12, start_hour=24))
        assert [e.reason for e in tick.refits] == [StalenessReason.DATA_GROWTH.value]
        assert len(calls) == 2

    def test_rolled_model_expires_after_a_week(self, calls):
        sched, __ = scheduler()
        sched.on_windows(windows([50.0] * 24))
        tick = sched.on_windows(windows([50.0], start_hour=24))
        assert tick.refits == []
        assert sched.trace.counters["stream_rolls_applied"] == 1
        # The model was fitted through hour 23; a week later it expires.
        sched.clock.advance_to(23 * HOUR + WEEK_SECONDS + HOUR)
        tick = sched.on_windows(windows([50.0], start_hour=25))
        assert sched.trace.counters["stream_rolls_applied"] == 2
        assert [e.reason for e in tick.refits] == [StalenessReason.EXPIRED.value]
        assert len(calls) == 2


class TestSelectionCacheReuse:
    def test_resync_unchanged_workload_costs_zero_fits(self, calls):
        """The acceptance criterion: unchanged workloads never re-fit."""
        sched, __ = scheduler(calls)
        sched.on_windows(windows([50.0] * 24))
        assert len(calls) == 1
        report = sched.resync()  # same history, same config: pure cache hit
        assert len(calls) == 1
        assert report.trace.counters["selection_cache_hits"] == 1
        assert report.trace.counters.get("selection_cache_misses", 0) == 0

    def test_resync_after_growth_refits_for_real(self, calls):
        sched, __ = scheduler(calls)
        sched.on_windows(windows([50.0] * 24))
        sched.on_windows(windows([50.0] * 2, start_hour=24))  # grew, still fresh
        sched.resync()
        assert len(calls) == 2  # fingerprints differ: a real selection ran

    def test_resync_before_any_data_rejected(self, calls):
        sched, __ = scheduler(calls)
        with pytest.raises(DataError):
            sched.resync()


class TestAdvisories:
    def test_graded_only_with_threshold_and_model(self, calls):
        sched, __ = scheduler(calls, thresholds={"cpu": 80.0})
        batch = windows([50.0] * 24) + windows([50.0] * 24, metric="memory")
        tick = sched.on_windows(batch)
        graded = {k.metric for k in tick.advisories}
        assert graded == {"cpu"}  # memory has no threshold

    def test_breach_graded_against_threshold(self, calls):
        # Flat forecast: mean 50, 95% band ~[48.04, 51.96].
        sched, __ = scheduler(calls, thresholds={"cpu": 49.0})
        tick = sched.on_windows(windows([50.0] * 24))
        advisory = tick.advisories[sched.workload_key("db1", "cpu")]
        assert advisory.severity is BreachSeverity.LIKELY
        assert advisory.first_breach_step == 1
        assert advisory.headroom == pytest.approx(-1.0)

    def test_advisory_slices_to_still_future_steps(self, calls):
        """As the clock advances past training end, the horizon shrinks
        to the still-future remainder (recomputed from the cached model,
        no refit)."""
        sched, planner = scheduler(calls, thresholds={"cpu": 80.0}, horizon=24)
        sched.on_windows(windows([50.0] * 24))
        sched.clock.advance_to(30 * HOUR)
        tick = sched.on_windows([])
        advisory = tick.advisories[sched.workload_key("db1", "cpu")]
        # Training ended at hour 24; at hour 30 six steps have slipped
        # into the past, but the advisory still looks base-horizon ahead.
        assert advisory.severity is BreachSeverity.NONE
        assert len(calls) == 1

    def test_grading_horizon_is_capped_after_training_end(self, calls):
        """Per-tick grading cost stays bounded: the still-future slide is
        capped at the weekly expiry budget, so forecast length cannot
        grow linearly with stream time for a model that never refits."""
        sched, planner = scheduler(calls, thresholds={"cpu": 80.0}, horizon=24)
        sched.on_windows(windows([50.0] * 24))
        model = planner.entry(sched.workload_key("db1", "cpu")).outcome.model
        seen = []
        orig = model.forecast
        model.forecast = lambda horizon, **kw: [seen.append(horizon), orig(horizon, **kw)][1]
        train_end = model.train.end
        week_steps = 7 * 24
        sched.clock.advance_to(train_end + 52 * 7 * 24 * HOUR)  # a year idle
        sched.on_windows([])
        assert seen == [24 + week_steps]

    def test_explicit_zero_horizon_disables_grading(self, calls):
        """``horizon=0`` must mean zero lookahead, not fall back to the
        Table 1 default (regression: ``self.horizon or ...`` treated 0 as
        unset)."""
        sched, __ = scheduler(calls, thresholds={"cpu": 1.0}, horizon=0)
        tick = sched.on_windows(windows([50.0] * 24))
        # Mean 50 dwarfs the threshold; under the default horizon this key
        # would grade LIKELY, so no advisory proves 0 was honoured.
        assert tick.advisories == {}
        assert len(calls) == 1  # the model itself was still selected

    def test_seed_history_bootstraps_without_windows(self, calls):
        sched, __ = scheduler(calls)
        series = TimeSeries(np.full(24, 50.0), Frequency.HOURLY, start=0.0, name="db1.cpu")
        sched.seed_history("db1", "cpu", series)
        tick = sched.on_windows(windows([50.0], start_hour=24))
        assert [e.reason for e in tick.refits] == ["initial"]

    def test_seed_history_validation(self, calls):
        sched, __ = scheduler(calls)
        with pytest.raises(DataError):
            sched.seed_history(
                "db1", "cpu", TimeSeries(np.ones(8), Frequency.MINUTE_15)
            )
        sched.on_windows(windows([1.0]))
        with pytest.raises(DataError):
            sched.seed_history(
                "db1", "cpu", TimeSeries(np.ones(8), Frequency.HOURLY)
            )

    def test_bad_knobs_rejected(self):
        planner = EstatePlanner()
        with pytest.raises(DataError):
            ForecastScheduler(planner, min_observations=1)
        with pytest.raises(DataError):
            ForecastScheduler(planner, min_observations=24, history_cap=10)
