"""A serving tick makes no ``scipy.stats`` call.

Every tick re-grades every key and the planner scores blueprints from
the same bands, so the Gaussian band multiplier and breach tail run per
key per tick. They come from ``scipy.special`` (``ndtri``/``ndtr``);
``scipy.stats.norm`` wraps the same functions in a generic-distribution
dispatch many times costlier per call. This guard makes ``norm.ppf`` and
``norm.sf`` raise and runs a planning-on runtime over the three families
the serving estate mixes — HES and day-profile cohorts, per-key SARIMA —
so one reintroduced call fails here instead of quietly slowing the loop.
"""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from repro.agent import AgentSample
from repro.core import Frequency, TimeSeries
from repro.engine.executor import SerialExecutor
from repro.models import DayProfile, HoltWinters
from repro.models.arima import Arima
from repro.models.ets import FittedExpSmoothing
from repro.selection import AutoConfig
from repro.selection.auto import SelectionOutcome
from repro.service import EstatePlanner
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


def test_serving_tick_makes_no_scipy_stats_call(estate, monkeypatch):
    calls = []

    def forbidden(*args, **kwargs):
        # Recorded as well as raised: the cohort path catches a failing
        # batched forecast and regrades its rows one by one.
        calls.append(args)
        raise AssertionError("scipy.stats.norm called on the serving tick")

    monkeypatch.setattr(stats.norm, "ppf", forbidden)
    monkeypatch.setattr(stats.norm, "sf", forbidden)

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
