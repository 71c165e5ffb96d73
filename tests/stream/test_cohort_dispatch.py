"""Cohort grading vs scalar grading: byte-identical advisories.

The scheduler's batched path exists purely as an execution strategy —
every observable (advisory reprs, refit log, verdicts, cohort-neutral
counters) must match the scalar grader exactly. The scalar oracle is the
scheduler's own fallback: with the batched forecast kernel made to
raise, every cohort job grades alone through ``_grade_alone``. These
tests run the same window feed both ways with real Holt–Winters fits so
rolls and cohort grading genuinely execute, then diff the outputs.
"""

import numpy as np
import pytest

from repro.core import Frequency, TimeSeries
from repro.exceptions import DataError
from repro.models import HoltWinters, SeasonalNaive
from repro.selection import AutoConfig
from repro.selection.auto import SelectionOutcome
from repro.service import EstatePlanner
from repro.stream import ClosedWindow, ForecastScheduler

HOUR = 3600.0
PERIOD = 24


def _hw_select(calls):
    def fake_auto_select(series, config=None, executor=None, **kwargs):
        calls.append(series.name)
        model = HoltWinters(period=PERIOD).fit(series)
        return SelectionOutcome(
            model=model,
            technique="hes",
            test_rmse=1.0,
            best_spec=None,
            seasonality=None,
            shock_calendar=None,
        )

    return fake_auto_select


def _values(seed, n, start=0):
    rng = np.random.default_rng(seed)
    t = np.arange(start, start + n)
    return 50.0 + 10.0 * np.sin(2 * np.pi * t / PERIOD) + rng.normal(0, 0.5, n)


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


def make_scheduler(min_observations=72, thresholds=None, **kwargs):
    planner = EstatePlanner(config=AutoConfig(technique="hes", n_jobs=1))
    sched = ForecastScheduler(
        planner,
        thresholds=thresholds if thresholds is not None else {"cpu": 90.0},
        min_observations=min_observations,
        **kwargs,
    )
    return sched, planner


def break_cohort_grading(monkeypatch):
    """Make the batched forecast raise, so every cohort job grades alone."""

    def boom(models, horizon, alpha=0.05):
        raise RuntimeError("batched forecast unavailable")

    monkeypatch.setattr("repro.stream.scheduler.forecast_cohort_arrays", boom)


KEYS = ("db1", "db2", "db3")


def feed_ticks(sched, n_ticks=6, nan_at=None):
    """Seed 72 windows per key, then n_ticks of one window per key.

    Returns the advisory reprs per tick. ``nan_at = (tick, instance)``
    poisons one window to exercise the drop-out path.
    """
    batch = []
    for k, inst in enumerate(KEYS):
        batch.extend(windows(_values(k, 72), instance=inst))
    out = [_tick_repr(sched.on_windows(batch))]
    for t in range(n_ticks):
        batch = []
        for k, inst in enumerate(KEYS):
            v = _values(k, 1, start=72 + t)[0]
            if nan_at == (t, inst):
                v = np.nan
            batch.extend(windows([v], start_hour=72 + t, instance=inst))
        out.append(_tick_repr(sched.on_windows(batch)))
    return out


def _tick_repr(tick):
    return {
        "advisories": [(repr(k), repr(v)) for k, v in tick.advisories.items()],
        "refits": [(repr(e.key), e.reason, e.at) for e in tick.refits],
        "verdicts": [(repr(k), repr(v)) for k, v in tick.verdicts.items()],
    }


class TestDispatchParity:
    def test_cohort_and_per_key_are_byte_identical(self, monkeypatch):
        ticks = {}
        counters = {}
        for mode in ("cohort", "scalar"):
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr("repro.service.estate.auto_select", _hw_select(calls))
                if mode == "scalar":
                    break_cohort_grading(patch)
                sched, __ = make_scheduler()
                ticks[mode] = feed_ticks(sched)
            counters[mode] = dict(sched.trace.counters)
            assert calls == [f"{inst}.cpu" for inst in KEYS]
        assert ticks["cohort"] == ticks["scalar"]
        # Rolls batch either way; grading cohorts add on top only when
        # the batched forecast runs.
        assert counters["cohort"].get("stream_cohorts_dispatched", 0) > counters[
            "scalar"
        ].get("stream_cohorts_dispatched", 0)
        assert counters["cohort"].get("stream_cohort_rows", 0) >= counters[
            "scalar"
        ].get("stream_cohort_rows", 0) + len(KEYS)
        # Cohort-neutral counters agree exactly.
        for name in (
            "stream_rolls_applied",
            "stream_advisories_graded",
            "stream_refits_triggered",
            "stream_initial_selections",
        ):
            assert counters["cohort"].get(name, 0) == counters["scalar"].get(name, 0)
        assert counters["cohort"].get("stream_rolls_applied", 0) > 0

    def test_broken_cohort_roll_falls_back_per_row(self, monkeypatch):
        # When the batched roll blows up, every member must still advance
        # through its own ``advance`` — identical output, nobody dropped.
        monkeypatch.setattr("repro.service.estate.auto_select", _hw_select([]))
        reference_sched, __ = make_scheduler()
        reference = feed_ticks(reference_sched)

        def boom(models, values):
            raise RuntimeError("cohort kernel unavailable")

        monkeypatch.setattr("repro.stream.scheduler.advance_cohort", boom)
        sched, __ = make_scheduler()
        assert feed_ticks(sched) == reference
        assert sched.trace.counters.get("stream_rolls_applied", 0) == reference_sched.trace.counters.get("stream_rolls_applied", 0)

    def test_broken_cohort_grading_falls_back_per_job(self, monkeypatch):
        monkeypatch.setattr("repro.service.estate.auto_select", _hw_select([]))
        reference_sched, __ = make_scheduler()
        reference = feed_ticks(reference_sched)
        break_cohort_grading(monkeypatch)
        sched, __ = make_scheduler()
        assert feed_ticks(sched) == reference
        assert sched.trace.counters.get("stream_advisories_graded", 0) == reference_sched.trace.counters.get("stream_advisories_graded", 0)


class TestAdvisoryMemo:
    def test_quiet_tick_reserves_memo(self, monkeypatch):
        calls = []
        monkeypatch.setattr("repro.service.estate.auto_select", _hw_select(calls))
        sched, __ = make_scheduler()
        ticks = feed_ticks(sched)
        before = sched.trace.counters.get("stream_advisory_cache_hits", 0)
        quiet = sched.on_windows([])
        after = sched.trace.counters.get("stream_advisory_cache_hits", 0)
        assert after - before == len(KEYS)
        assert _tick_repr(quiet)["advisories"] == ticks[-1]["advisories"]

    def test_new_window_invalidates_memo(self, monkeypatch):
        calls = []
        monkeypatch.setattr("repro.service.estate.auto_select", _hw_select(calls))
        sched, __ = make_scheduler()
        feed_ticks(sched, n_ticks=2)
        sched.on_windows([])  # prime and confirm memo
        hits_before = sched.trace.counters.get("stream_advisory_cache_hits", 0)
        batch = []
        for k, inst in enumerate(KEYS):
            batch.extend(
                windows(_values(k, 1, start=74), start_hour=74, instance=inst)
            )
        sched.on_windows(batch)
        # Rolls replaced every model object: grading must re-run.
        assert sched.trace.counters.get("stream_advisory_cache_hits", 0) == hits_before


class TestAdoptModel:
    def test_adopted_outcome_grades_without_selection(self, monkeypatch):
        calls = []
        monkeypatch.setattr("repro.service.estate.auto_select", _hw_select(calls))
        sched, planner = make_scheduler()
        y = _values(9, 72)
        series = TimeSeries(y, frequency=Frequency.HOURLY, start=0.0, name="dbX.cpu")
        sched.seed_history("dbX", "cpu", series)
        outcome = _hw_select([])(series)
        wkey = sched.adopt_model("dbX", "cpu", outcome)
        assert planner.entry(wkey).outcome is outcome
        tick = sched.on_windows(
            windows(_values(9, 1, start=72), start_hour=72, instance="dbX")
        )
        assert calls == []  # no grid selection ever ran
        assert any(k.workload == "dbX" for k in tick.advisories)
        assert sched.trace.counters.get("stream_rolls_applied", 0) == 1

    def test_adopt_requires_history(self):
        sched, __ = make_scheduler()
        outcome = _hw_select([])(
            TimeSeries(_values(3, 72), frequency=Frequency.HOURLY, start=0.0, name="x")
        )
        with pytest.raises(DataError):
            sched.adopt_model("ghost", "cpu", outcome)

    def test_adopt_rejects_a_model_that_cannot_roll(self):
        sched, __ = make_scheduler()
        series = TimeSeries(_values(3, 72), frequency=Frequency.HOURLY, start=0.0, name="x")
        sched.seed_history("dbX", "cpu", series)
        outcome = SelectionOutcome(
            model=SeasonalNaive(PERIOD).fit(series),
            technique="hes",
            test_rmse=1.0,
            best_spec=None,
            seasonality=None,
            shock_calendar=None,
        )
        with pytest.raises(DataError, match="rolls"):
            sched.adopt_model("dbX", "cpu", outcome)


class TestKeyHistoryCap:
    def test_amortised_trim_matches_naive_reference(self, stub_selection):
        cap = 30
        sched, __ = make_scheduler(
            min_observations=24, thresholds={}, history_cap=cap
        )
        reference = []
        for i in range(200):
            v = float(i)
            reference.append(v)
            reference = reference[-cap:]
            sched.on_windows(windows([v], start_hour=i))
            series = sched.history("db1", "cpu")
            assert series.values.tolist() == reference
            assert series.start == (i + 1 - len(reference)) * HOUR
        # The backing list stays bounded: amortised compaction really ran.
        state = sched._histories[sched.key_table.id_of("db1", "cpu")]
        assert len(state.values) <= cap + max(cap, 64) + 1

    def test_continuity_check_survives_compaction(self, stub_selection):
        sched, __ = make_scheduler(
            min_observations=24, thresholds={}, history_cap=30
        )
        sched.on_windows(windows([1.0] * 150))
        with pytest.raises(DataError):
            sched.on_windows(windows([1.0], start_hour=160))  # gap after trim
        sched.on_windows(windows([2.0], start_hour=150))  # contiguous is fine
