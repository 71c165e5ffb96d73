"""A serving tick forecasts each key once, from O(1) state, without ``scipy.stats``.

Every tick re-grades every key and the planner scores blueprints from
the same bands, so the Gaussian band multiplier and breach tail run per
key per tick. They come from ``scipy.special`` (``ndtri``/``ndtr``);
``scipy.stats.norm`` wraps the same functions in a generic-distribution
dispatch many times costlier per call. These guards run a planning-on
runtime over the three families the serving estate mixes — HES,
day-profile and SARIMA cohorts — and record, rather than only raise on,
the calls that must not happen (the cohort path catches a failing
batched forecast and regrades its rows one by one): a ``scipy.stats``
call, a ``lfilter`` pass over more than the tick's new windows (SARIMA
re-filtering its history), or a model ``forecast`` made for the plan
escalator instead of reusing the band the tick graded.
"""

import dataclasses

import numpy as np
import pytest
from scipy import signal, stats

from repro.agent import AgentSample
from repro.core import Frequency, TimeSeries
from repro.engine.executor import SerialExecutor
from repro.models import DayProfile, HoltWinters
from repro.models.arima import Arima, FittedArima
from repro.models.dayprofile import FittedDayProfile
from repro.models.ets import FittedExpSmoothing
from repro.planner import ForecastBand, PlanEscalator
from repro.selection import AutoConfig
from repro.selection.auto import SelectionOutcome
from repro.service import EstatePlanner
from repro.service.estate import WorkloadStatus
from repro.stream import StreamConfig, StreamRuntime

HOUR = 3600.0
PERIOD = 24
HISTORY = 10 * PERIOD
THRESHOLD = 80.0
TICKS = 8


def _history(seed):
    rng = np.random.default_rng(seed)
    t = np.arange(HISTORY + TICKS + 2)
    return 40.0 + 8.0 * np.sin(2 * np.pi * t / PERIOD) + rng.normal(0.0, 0.8, t.size)


def _clone(model, technique, offset, history):
    """``model`` shifted by ``offset`` and trained on ``history``."""
    if isinstance(model, FittedExpSmoothing):
        model = dataclasses.replace(model, train=history, level=model.level + offset)
    elif technique == "dayprofile":
        model = dataclasses.replace(model, train=history, centroids=model.centroids + offset)
    else:  # seasonal differencing passes a level offset straight through
        model = dataclasses.replace(model, train=history)
    return SelectionOutcome(
        model=model,
        technique=technique,
        test_rmse=1.0,
        best_spec=None,
        seasonality=None,
        shock_calendar=None,
    )


@pytest.fixture(scope="module")
def estate():
    """Two keys per family, one quiet and one forecast to breach."""
    families = (
        ("hes", HoltWinters(period=PERIOD)),
        ("dayprofile", DayProfile(period=PERIOD, seed=0)),
        ("sarimax", Arima((1, 0, 1), seasonal=(0, 1, 1, PERIOD))),
    )
    keys = []
    for f, (technique, unfitted) in enumerate(families):
        values = _history(f)
        model = unfitted.fit(TimeSeries(values[:HISTORY], Frequency.HOURLY))
        for offset in (0.0, 45.0):  # 40 + 45 sits above the threshold
            name = f"{technique}-{int(offset)}"
            shifted = values + offset
            history = TimeSeries(shifted[:HISTORY], Frequency.HOURLY, name=f"{name}.cpu")
            keys.append((name, history, _clone(model, technique, offset, history), shifted))
    return keys


def _polls(keys, hour):
    return [
        AgentSample(name, "cpu", (hour + q / 4.0) * HOUR, float(series[hour]))
        for name, __, __, series in keys
        for q in range(4)
    ]


def _serving_runtime(estate):
    runtime = StreamRuntime(
        EstatePlanner(config=AutoConfig(technique="hes", n_jobs=1)),
        StreamConfig(
            thresholds={"cpu": THRESHOLD},
            jitter_seconds=0.0,
            duplicate_rate=0.0,
            planning=True,
            plan_sustained_ticks=2,
            seed=3,
        ),
        executor=SerialExecutor(),
    )
    scheduler = runtime.scheduler
    for name, history, outcome, __ in estate:
        scheduler.seed_history(name, "cpu", history)
        scheduler.adopt_model(name, "cpu", outcome)
    return runtime


def test_serving_tick_makes_no_scipy_stats_call(estate, monkeypatch):
    calls = []

    def forbidden(*args, **kwargs):
        # Recorded as well as raised: the cohort path catches a failing
        # batched forecast and regrades its rows one by one.
        calls.append(args)
        raise AssertionError("scipy.stats.norm called on the serving tick")

    monkeypatch.setattr(stats.norm, "ppf", forbidden)
    monkeypatch.setattr(stats.norm, "sf", forbidden)

    runtime = _serving_runtime(estate)
    graded = 0
    for hour in range(HISTORY, HISTORY + TICKS):
        tick = runtime.ingest_batch(_polls(estate, hour))
        if not tick.advisories:
            continue  # the first delivery closes no window yet
        graded += 1
        assert len(tick.advisories) == len(estate)
        assert not [key for key, advisory in tick.advisories.items() if advisory.degraded]
    assert graded >= TICKS - 2
    assert not calls

    served = {type(runtime.planner.entry(key).outcome.model).__name__ for key in tick.advisories}
    assert served == {"FittedExpSmoothing", "FittedDayProfile", "FittedArima"}
    counters = runtime.telemetry().counters
    assert counters.get("stream_selection_runs", 0) == 0
    assert counters["stream_cohorts_dispatched"] > 0
    assert runtime.proposals, "breaching keys formed no plan proposal"


def _record_forecasts(monkeypatch, calls, inside):
    """Record each model ``forecast`` call, flagged when the escalator made it."""
    for cls in (FittedExpSmoothing, FittedDayProfile, FittedArima):
        original = cls.forecast

        def recorded(self, *args, __original=original, **kwargs):
            calls.append((type(self).__name__, bool(inside)))
            return __original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "forecast", recorded)
    on_tick = PlanEscalator.on_tick

    def flagged(self, *args, **kwargs):
        inside.append(True)
        try:
            return on_tick(self, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(PlanEscalator, "on_tick", flagged)


def test_planning_tick_reuses_graded_bands_and_rolled_state(estate, monkeypatch):
    runtime = _serving_runtime(estate)
    # The second delivery closes the first window: every key rolls and
    # grades once, SARIMA keys building their state from the history.
    for hour in (HISTORY, HISTORY + 1):
        tick = runtime.ingest_batch(_polls(estate, hour))
    assert len(tick.advisories) == len(estate)

    lengths, forecasts, inside = [], [], []
    lfilter = signal.lfilter

    def recorded_lfilter(b, a, x, *args, **kwargs):
        lengths.append(np.shape(x)[-1])
        return lfilter(b, a, x, *args, **kwargs)

    monkeypatch.setattr(signal, "lfilter", recorded_lfilter)
    _record_forecasts(monkeypatch, forecasts, inside)

    for hour in range(HISTORY + 2, HISTORY + TICKS):
        lengths.clear()
        tick = runtime.ingest_batch(_polls(estate, hour))
        assert len(tick.advisories) == len(estate)
        # One delivered hour closes one window per key: SARIMA keys
        # continue their filter through that one value and never
        # re-filter their history.
        assert lengths and max(lengths) <= 1
    # Every family grades in cohorts and the escalator scores the bands
    # the tick graded, so no tick after the first forecasts any model.
    assert forecasts == []
    assert runtime.proposals, "breaching keys formed no plan proposal"
    counters = runtime.telemetry().counters
    assert counters["plan_blueprints_scored"] > 0


def _fresh_band(runtime, name):
    """The key's remaining band, forecast afresh from a cache-free model copy."""
    scheduler = runtime.scheduler
    wkey = scheduler.workload_key(name, "cpu")
    entry = runtime.planner.entry(wkey)
    if entry.outcome is None:
        entry = scheduler._fallback[scheduler.key_table.id_of(name, "cpu")]
    live = scheduler._live.get(scheduler.key_table.id_of(name, "cpu"))
    model = live.model if live is not None and live.source is entry.outcome else entry.outcome.model
    base, elapsed = scheduler._grading_window(model, scheduler._now())
    forecast = entry.outcome.forecast(base + elapsed, model=dataclasses.replace(model))
    forecast = forecast.clipped(0.0)
    return ForecastBand(
        mean=forecast.mean.values[elapsed:], upper=forecast.upper.values[elapsed:]
    )


def _assert_views_fresh(runtime, estate, forecasts=None, expect_forecasts=0):
    before = None if forecasts is None else len(forecasts)
    views = {name: runtime.scheduler.planning_view(name, "cpu") for name, *__ in estate}
    if forecasts is not None:
        assert len(forecasts) - before == expect_forecasts
    for name, *__ in estate:
        band, threshold = views[name]
        assert isinstance(band, ForecastBand)
        assert threshold == THRESHOLD
        assert repr(band.payload()) == repr(_fresh_band(runtime, name).payload())


def test_planning_view_band_equals_a_fresh_forecast(estate, monkeypatch):
    runtime = _serving_runtime(estate)
    forecasts, inside = [], []
    _record_forecasts(monkeypatch, forecasts, inside)
    # Before any tick nothing is graded: every view forecasts.
    _assert_views_fresh(runtime, estate)
    for hour in range(HISTORY, HISTORY + 3):
        runtime.ingest_batch(_polls(estate, hour))
    # After rolls: every key was graded this tick; its view is the memo.
    _assert_views_fresh(runtime, estate, forecasts, expect_forecasts=0)

    # A memo hit: the clock moves within the hour, no window closes.
    hits = runtime.telemetry().counters.get("stream_advisory_cache_hits", 0)
    runtime.ingest_batch([], clock_target=runtime.clock.now() + 60.0)
    assert runtime.telemetry().counters["stream_advisory_cache_hits"] > hits
    _assert_views_fresh(runtime, estate, forecasts, expect_forecasts=0)

    # A refit between ticks: the SARIMA key's new outcome has no graded
    # band yet, so its view forecasts once; the next tick grades it.
    name, history, __, __ = estate[-1]
    fit = Arima((1, 0, 1), seasonal=(0, 1, 1, PERIOD)).fit(history)
    refit = _clone(fit, "sarimax", 0.0, history)
    runtime.scheduler.adopt_model(name, "cpu", refit)
    _assert_views_fresh(runtime, estate, forecasts, expect_forecasts=1)
    runtime.ingest_batch(_polls(estate, hour + 1))
    _assert_views_fresh(runtime, estate, forecasts, expect_forecasts=0)

    # A degraded key: selection collapses, the cached outcome grades.
    degraded = runtime.planner.entry(runtime.scheduler.workload_key(estate[0][0], "cpu"))
    degraded.status = WorkloadStatus.FAILED
    degraded.outcome = None
    tick = runtime.ingest_batch([], clock_target=runtime.clock.now() + 60.0)
    assert tick.advisories[degraded.key].degraded == "cached-model"
    _assert_views_fresh(runtime, estate)
