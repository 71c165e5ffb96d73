"""Rolling is the only way a served key stays fresh.

Every modelled key rolls its model through each closed window and is
checked by the CUSUM drift test plus the expiry and growth rules. These
tests cover the two cases that need more than the family's ``advance``:
a SARIMAX fit with shock regressors, whose new rows come from the
outcome's shock calendar, and an agent outage, whose empty hour rolls in
as the model's own one-step forecast.
"""

import dataclasses

import numpy as np
import pytest

from repro.agent import AgentSample
from repro.core import Frequency, TimeSeries
from repro.engine.executor import SerialExecutor
from repro.models import HoltWinters
from repro.models.sarimax import Sarimax
from repro.selection import AutoConfig
from repro.selection.auto import SelectionOutcome
from repro.selection.grid import CandidateSpec
from repro.service import EstatePlanner
from repro.shocks.detector import RecurringShock, ShockCalendar
from repro.stream import ClosedWindow, ForecastScheduler, StreamConfig, StreamRuntime
from repro.stream.drift import CusumDetector

HOUR = 3600.0
PERIOD = 24


def _batch_job_rows(start, n):
    """Indicator rows of a batch job every 7 hours, at phase 3."""
    return ((np.arange(start, start + n) - 3) % 7 == 0).astype(float)[:, None]


class TestShockRegressorRolls:
    N_TRAIN = 1008
    WINDOWS = 30

    @pytest.fixture(scope="class")
    def exog_outcome(self):
        """A SARIMAX fit with a batch job every 7 hours as its one regressor.

        The shock period does not divide the seasonal difference, so its
        coefficient is identified and a misaligned calendar row would
        show in the forecast.
        """
        rng = np.random.default_rng(21)
        t = np.arange(self.N_TRAIN + self.WINDOWS)
        calendar = ShockCalendar(
            shocks=(RecurringShock(period=7, phase=3, occurrences=144, mean_magnitude=25.0),),
            n_train=self.N_TRAIN,
        )
        values = 50.0 + 8.0 * np.sin(2 * np.pi * t / PERIOD) + rng.normal(0.0, 1.0, t.size)
        values = values + 25.0 * _batch_job_rows(0, t.size)[:, 0]
        history = TimeSeries(values[: self.N_TRAIN], Frequency.HOURLY, name="db1.iops")
        fit = Sarimax((1, 0, 0), seasonal=(0, 1, 1, PERIOD)).fit(
            history, exog=calendar.train_matrix()
        )
        outcome = SelectionOutcome(
            model=fit,
            technique="sarimax",
            test_rmse=1.0,
            best_spec=CandidateSpec(order=(1, 0, 0), seasonal=(0, 1, 1, PERIOD), exog_columns=1),
            seasonality=None,
            shock_calendar=calendar,
        )
        assert outcome.uses_exog and abs(float(fit.beta[0])) > 10.0
        return outcome, history, values

    def test_adopted_exog_fit_rolls_every_window(self, exog_outcome):
        outcome, history, values = exog_outcome
        sched = ForecastScheduler(
            EstatePlanner(config=AutoConfig(technique="sarimax", n_jobs=1)),
            thresholds={"iops": 200.0},
        )
        sched.seed_history("db1", "iops", history)
        key = sched.adopt_model("db1", "iops", outcome)
        for i in range(self.WINDOWS):
            hour = self.N_TRAIN + i
            window = ClosedWindow("db1", "iops", hour * HOUR, float(values[hour]), 4, 4)
            tick = sched.on_windows([window])
            assert tick.refits == []
            assert not tick.verdicts[key].stale
            assert sched.trace.counters["stream_rolls_applied"] == i + 1
            assert not tick.advisories[key].degraded

        rolled = sched._live[sched.key_table.id_of("db1", "iops")].model
        assert len(rolled.train) == self.N_TRAIN + self.WINDOWS
        # A fresh fit object on the extended series, with the same
        # coefficients and the calendar rows of its own length.
        n = self.N_TRAIN + self.WINDOWS
        fresh = dataclasses.replace(
            outcome.model, train=TimeSeries(values[:n], Frequency.HOURLY, name="db1.iops")
        )
        fresh._train_exog = _batch_job_rows(0, n)
        served = outcome.forecast(24, model=rolled)
        expected = fresh.forecast(24, exog_future=_batch_job_rows(n, 24))
        for band in ("mean", "lower", "upper"):
            np.testing.assert_array_equal(
                getattr(served, band).values, getattr(expected, band).values
            )


class TestOutage:
    HISTORY = 10 * PERIOD
    HOURS = 8
    OUTAGE = 3  # the agent misses this streamed hour entirely

    def _values(self):
        rng = np.random.default_rng(5)
        t = np.arange(self.HISTORY + self.HOURS)
        return 40.0 + 8.0 * np.sin(2 * np.pi * t / PERIOD) + rng.normal(0.0, 0.8, t.size)

    @pytest.mark.parametrize("deliveries_per_hour", [1, 2])
    def test_missed_hour_rolls_on_the_models_own_forecast(
        self, deliveries_per_hour, monkeypatch
    ):
        values = self._values()
        history = TimeSeries(values[: self.HISTORY], Frequency.HOURLY, name="db1.cpu")
        outcome = SelectionOutcome(
            model=HoltWinters(period=PERIOD).fit(history),
            technique="hes",
            test_rmse=1.0,
            best_spec=None,
            seasonality=None,
            shock_calendar=None,
        )
        runtime = StreamRuntime(
            EstatePlanner(config=AutoConfig(technique="hes", n_jobs=1)),
            StreamConfig(thresholds={"cpu": 80.0}, jitter_seconds=0.0, duplicate_rate=0.0),
            executor=SerialExecutor(),
        )
        sched = runtime.scheduler
        sched.seed_history("db1", "cpu", history)
        sched.adopt_model("db1", "cpu", outcome)
        batches = []
        on_windows = sched.on_windows
        monkeypatch.setattr(
            sched, "on_windows", lambda windows: [batches.append(windows), on_windows(windows)][1]
        )

        per_delivery = 4 // deliveries_per_hour
        for hour in range(self.HISTORY, self.HISTORY + self.HOURS):
            if hour == self.HISTORY + self.OUTAGE:
                continue
            polls = [
                AgentSample("db1", "cpu", (hour + q / 4.0) * HOUR, float(values[hour]))
                for q in range(4)
            ]
            for lo in range(0, 4, per_delivery):
                tick = runtime.ingest_batch(polls[lo : lo + per_delivery])
                assert tick.refits == []

        closed = [w for batch in batches for w in batch]
        gap = [w for w in closed if not np.isfinite(w.value)]
        assert [w.start for w in gap] == [(self.HISTORY + self.OUTAGE) * HOUR]
        gap_batch = next(batch for batch in batches if gap[0] in batch)
        # Two deliveries an hour close the empty window alone; one
        # delivery an hour closes it together with the hour before.
        assert len(gap_batch) == (1 if deliveries_per_hour == 2 else 2)
        assert sched.refit_log == []
        # The history keeps the gap, for selection to interpolate.
        assert np.isnan(sched.history("db1", "cpu").values[self.HISTORY + self.OUTAGE])

        live = sched._live[sched.key_table.id_of("db1", "cpu")]
        assert live.source is outcome
        assert live.model.train.end == closed[-1].start
        # Reference: roll window by window, an empty one as the model's own
        # one-step forecast; only finite windows feed the drift detector.
        model, detector = outcome.model, CusumDetector()
        scale = np.sqrt(outcome.model.sigma2)
        for window in closed:
            if np.isfinite(window.value):
                model, innovations = model.advance(np.array([window.value]))
                detector.update(innovations[0] / scale)
            else:
                model, __ = model.advance(model.forecast(1).mean.values)
        np.testing.assert_array_equal(live.model.train.values, model.train.values)
        assert (live.detector.g_pos, live.detector.g_neg) == (detector.g_pos, detector.g_neg)
