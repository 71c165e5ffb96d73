"""Day-profile models on the streaming plane.

Two properties: (1) cohort grading of day-profile models is an
execution strategy only — advisories, refits and verdicts are
byte-identical to the scalar grader each job falls back to when the
batched forecast raises; (2) the opt-in day-profile rung of
the degradation ladder serves shape-aware advisories when selection is
down, and falls through to seasonal-naive on short history."""

import numpy as np

from repro.engine.executor import SerialExecutor
from repro.faults.plan import FaultInjector, FaultKind, FaultPlan, FaultRule
from repro.models import DayProfile
from repro.selection import AutoConfig
from repro.selection.auto import SelectionOutcome
from repro.service import EstatePlanner
from repro.stream import ClosedWindow, ForecastScheduler

from tests.conftest import per_series

HOUR = 3600.0
PERIOD = 24
KEYS = ("db1", "db2", "db3")


def _dayprofile_select(calls):
    def fake_auto_select(series, config=None, executor=None, **kwargs):
        calls.append(series.name)
        model = DayProfile(n_clusters=3, period=PERIOD, seed=0).fit(series)
        # Baseline RMSE well above the innovation noise so the staleness
        # monitor stays quiet: these tests isolate grading, not refits.
        return SelectionOutcome(
            model=model,
            technique="dayprofile",
            test_rmse=10.0,
            best_spec=None,
            seasonality=None,
            shock_calendar=None,
        )

    return fake_auto_select


def _values(seed, n, start=0):
    """Three rotating day *shapes* plus noise — the day-profile regime.

    The shapes differ after z-normalisation (level shifts alone would
    collapse into one cluster), so the k-means labels recover the cycle.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(start, start + n)
    hour = t % PERIOD
    day = (t // PERIOD) % 3
    shapes = np.stack(
        [
            20.0 + 2.0 * np.sin(2 * np.pi * hour / PERIOD),
            50.0 + 20.0 * ((hour >= 9) & (hour <= 17)),
            30.0 + 40.0 * np.exp(-0.5 * ((hour - 20.0) / 2.0) ** 2),
        ]
    )
    return shapes[day, np.arange(n)] + rng.normal(0, 0.5, n)


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


def make_scheduler(**kwargs):
    kwargs.setdefault("min_observations", 72)
    planner = EstatePlanner(config=AutoConfig(technique="hes", n_jobs=1))
    sched = ForecastScheduler(planner, thresholds={"cpu": 90.0}, **kwargs)
    return sched, planner


def feed_ticks(sched, n_ticks=6, seed_hours=216):
    batch = []
    for k, inst in enumerate(KEYS):
        batch.extend(windows(_values(k, seed_hours), instance=inst))
    out = [_tick_repr(sched.on_windows(batch))]
    for t in range(n_ticks):
        batch = []
        for k, inst in enumerate(KEYS):
            v = _values(k, 1, start=seed_hours + t)[0]
            batch.extend(windows([v], start_hour=seed_hours + t, instance=inst))
        out.append(_tick_repr(sched.on_windows(batch)))
    return out


def _tick_repr(tick):
    return {
        "advisories": [(repr(k), repr(v)) for k, v in tick.advisories.items()],
        "refits": [(repr(e.key), e.reason, e.at) for e in tick.refits],
        "verdicts": [(repr(k), repr(v)) for k, v in tick.verdicts.items()],
    }


class TestDayProfileDispatchParity:
    def test_cohort_and_per_key_are_byte_identical(self, monkeypatch):
        ticks = {}
        counters = {}
        def boom(models, horizon, alpha=0.05):
            raise RuntimeError("batched forecast unavailable")

        for mode in ("cohort", "scalar"):
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(
                    "repro.service.estate.auto_select_many", per_series(_dayprofile_select(calls))
                )
                if mode == "scalar":
                    patch.setattr(
                        "repro.stream.scheduler.dayprofile_forecast_cohort_arrays", boom
                    )
                sched, __ = make_scheduler()
                ticks[mode] = feed_ticks(sched)
            counters[mode] = dict(sched.trace.counters)
            assert calls == [f"{inst}.cpu" for inst in KEYS]
        assert ticks["cohort"] == ticks["scalar"]
        # Same-spec day-profile models form one grading cohort per tick.
        assert counters["cohort"].get("stream_cohorts_dispatched", 0) > counters[
            "scalar"
        ].get("stream_cohorts_dispatched", 0)
        for name in (
            "stream_rolls_applied",
            "stream_advisories_graded",
            "stream_refits_triggered",
        ):
            assert counters["cohort"].get(name, 0) == counters["scalar"].get(name, 0)
        assert counters["cohort"].get("stream_rolls_applied", 0) == len(KEYS) * 6

    def test_broken_cohort_roll_falls_back_per_row(self, monkeypatch):
        monkeypatch.setattr(
            "repro.service.estate.auto_select_many", per_series(_dayprofile_select([]))
        )
        reference_sched, __ = make_scheduler()
        reference = feed_ticks(reference_sched)

        def boom(models, values):
            raise RuntimeError("cohort kernel unavailable")

        monkeypatch.setattr("repro.stream.scheduler.dayprofile_advance_cohort", boom)
        sched, __ = make_scheduler()
        assert feed_ticks(sched) == reference


def _broken_executor():
    rule = FaultRule(site="executor.submit", kind=FaultKind.TRANSIENT_ERROR, every=1)
    return SerialExecutor(injector=FaultInjector(FaultPlan(rules=(rule,))))


class TestDegradedDayProfileRung:
    def _run(self, dayprofile, seed_hours):
        sched, __ = make_scheduler(
            dayprofile=dayprofile,
            executor=_broken_executor(),
            min_observations=min(72, seed_hours),
        )
        batch = windows(_values(0, seed_hours), instance="db1")
        tick = sched.on_windows(batch)
        return sched, tick

    def test_dayprofile_rung_serves_when_selection_is_down(self):
        sched, tick = self._run(dayprofile=True, seed_hours=96)
        (advisory,) = tick.advisories.values()
        assert advisory.degraded == "day-profile"
        assert sched.trace.faults.get("degraded_day_profile", 0) == 1
        assert sched.trace.faults.get("degraded_seasonal_naive", 0) == 0

    def test_rung_is_opt_in(self):
        sched, tick = self._run(dayprofile=False, seed_hours=96)
        (advisory,) = tick.advisories.values()
        assert advisory.degraded == "seasonal-naive"
        assert sched.trace.faults.get("degraded_day_profile", 0) == 0

    def test_short_history_falls_through_to_seasonal_naive(self):
        # Under three complete days: the day-profile fit is impossible,
        # the ladder continues instead of dropping the key.
        sched, tick = self._run(dayprofile=True, seed_hours=60)
        (advisory,) = tick.advisories.values()
        assert advisory.degraded == "seasonal-naive"
        assert sched.trace.faults.get("degraded_day_profile", 0) == 0

    def test_recovery_upgrades_off_the_ladder(self, monkeypatch):
        monkeypatch.setattr(
            "repro.service.estate.auto_select_many", per_series(_dayprofile_select([]))
        )
        sched, __ = make_scheduler(dayprofile=True)
        # Selection is down for the seeding tick: day-profile rung serves.
        sched.executor = _broken_executor()
        tick = sched.on_windows(windows(_values(0, 96), instance="db1"))
        (advisory,) = tick.advisories.values()
        assert advisory.degraded == "day-profile"
        # Executor heals: the retry registered by the failed tick runs a
        # real selection and grading leaves the degraded ladder.
        sched.executor = None
        tick = sched.on_windows(windows(_values(0, 1, start=96), start_hour=96))
        (advisory,) = tick.advisories.values()
        assert not advisory.degraded
