"""The :class:`CapacityPlanner` facade: ingest → select → forecast → advise.

This is the library's front door, the equivalent of the production service
the paper describes in Section 8 (the monitoring/assessment UI of its
Figure 8). A planner wraps a metrics repository; callers ingest agent
samples, then ask for forecasts, threshold advisories and capacity
recommendations per (instance, metric). Selected models are cached in
memory and recorded in the repository, and are reused until the staleness
rules (one week / RMSE degradation) retire them — matching "that model is
then stored in a central repository and used for a period of one week or
until the model's RMSE drops to a point where it is rendered useless".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..agent.agent import AgentSample
from ..agent.repository import MetricsRepository
from ..core.frequency import Frequency
from ..core.timeseries import TimeSeries
from ..engine.executor import Executor
from ..engine.telemetry import RunTrace
from ..exceptions import DataError
from ..models.base import Forecast
from ..selection.auto import AutoConfig, SelectionOutcome, auto_select
from ..selection.staleness import WEEK_SECONDS, ModelMonitor, StalenessVerdict
from .sizing import CapacityRecommendation, recommend_capacity
from .thresholds import BreachPrediction, predict_breach

__all__ = ["CapacityPlanner", "PlannerEntry"]


@dataclass
class PlannerEntry:
    """Cached selection state for one (instance, metric) pair."""

    outcome: SelectionOutcome
    monitor: ModelMonitor
    series: TimeSeries

    def verdict(self) -> StalenessVerdict:
        return self.monitor.check()


class CapacityPlanner:
    """High-level capacity planning service over a metrics repository.

    Parameters
    ----------
    repository:
        Backing store; defaults to a fresh in-memory repository.
    config:
        Selection pipeline configuration applied to every metric.
    frequency:
        Granularity at which series are modelled (hourly, per the paper).
    executor:
        Execution backend handed to every selection run; ``None`` uses
        the shared executor for ``config.n_jobs``. Pass one
        :class:`~repro.engine.PoolExecutor` to share a single worker
        pool across every metric this planner selects.
    """

    def __init__(
        self,
        repository: MetricsRepository | None = None,
        config: AutoConfig | None = None,
        frequency: Frequency = Frequency.HOURLY,
        executor: Executor | None = None,
    ) -> None:
        self.repository = repository if repository is not None else MetricsRepository()
        self.config = config or AutoConfig()
        self.frequency = frequency
        self.executor = executor
        self._entries: dict[tuple[str, str], PlannerEntry] = {}

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def ingest(self, samples: list[AgentSample]) -> int:
        """Store raw agent polls in the repository."""
        return self.repository.ingest(samples)

    def ingest_series(self, instance: str, metric: str, series: TimeSeries) -> int:
        """Convenience: store a complete regular series as synthetic polls."""
        ts = series.timestamps
        samples = [
            AgentSample(instance=instance, metric=metric, timestamp=float(t), value=float(v))
            for t, v in zip(ts, series.values)
            if np.isfinite(v)
        ]
        if not samples:
            raise DataError("series contains no finite values to ingest")
        return self.repository.ingest(samples)

    def series(self, instance: str, metric: str) -> TimeSeries:
        """The hourly-aggregated series for a metric, straight from storage.

        The repository infers the polling grid (15-minute agent polls or
        pre-aggregated hourly values) and aggregates to the planner's
        modelling frequency.
        """
        return self.repository.load_series(instance, metric, frequency=self.frequency)

    # ------------------------------------------------------------------
    # Model plane
    # ------------------------------------------------------------------
    def _key(self, instance: str, metric: str) -> tuple[str, str]:
        return (instance, metric)

    def select_model(
        self, instance: str, metric: str, force: bool = False
    ) -> SelectionOutcome:
        """Run (or reuse) model selection for a metric.

        Reuses the cached model while the staleness monitor reports it
        fresh; pass ``force=True`` to retrain unconditionally.
        """
        key = self._key(instance, metric)
        entry = self._entries.get(key)
        if entry is not None and not force and not entry.verdict().stale:
            return entry.outcome
        series = self.series(instance, metric)
        outcome = auto_select(series, config=self.config, executor=self.executor)
        monitor = ModelMonitor.for_outcome(outcome)
        self._entries[key] = PlannerEntry(outcome=outcome, monitor=monitor, series=series)
        self.repository.store_model(
            instance=instance,
            metric=metric,
            fitted_at=outcome.model.train.end,
            label=outcome.model.label(),
            spec=outcome.spec_payload(),
            rmse=outcome.test_rmse,
        )
        return outcome

    def restore_model(self, instance: str, metric: str) -> SelectionOutcome | None:
        """Rehydrate the stored model after a process restart.

        The selection pipeline persists the winning spec and its baseline
        RMSE; restarting the planner should not throw that week's model
        away. This method rebuilds the spec from the repository record,
        refits it on the current series (one fit, no grid search) and
        re-arms the staleness monitor with the *stored* fitted-at time, so
        the weekly expiry keeps counting from the original selection.

        Returns ``None`` when nothing is stored, or when the stored record
        has already expired (callers then run :meth:`select_model`).
        """
        record = self.repository.load_model(instance, metric)
        if record is None:
            return None
        series = self.series(instance, metric)
        age = series.end - record.fitted_at
        if age > WEEK_SECONDS:
            return None  # past the weekly rule: caller should re-select

        from ..core.preprocessing import interpolate_missing
        from ..selection.grid import CandidateSpec
        from ..shocks.detector import build_shock_calendar

        clean = interpolate_missing(series)
        spec_dict = record.spec
        if "dayprofile" in spec_dict:
            spec = CandidateSpec(
                order=(0, 0, 0), dayprofile=tuple(spec_dict["dayprofile"])
            )
        elif "order" not in spec_dict:
            return None  # an HES record: cheap enough to re-select
        else:
            seasonal_stored = spec_dict.get("seasonal") or None
            spec = CandidateSpec(
                order=tuple(spec_dict["order"]),
                seasonal=tuple(seasonal_stored) if seasonal_stored else None,
                exog_columns=int(spec_dict.get("exog_columns", 0)),
                fourier_periods=tuple(spec_dict.get("fourier_periods", ())),
                fourier_orders=tuple(spec_dict.get("fourier_orders", ())),
            )
        model = spec.build(maxiter=self.config.final_maxiter)
        shock_calendar = None
        exog = None
        if spec.exog_columns:
            period = self.frequency.default_period
            shock_calendar = build_shock_calendar(clean, period=period)
            if shock_calendar.n_columns < spec.exog_columns:
                return None  # shocks changed materially: force re-selection
            exog = shock_calendar.train_matrix()[:, : spec.exog_columns]
        from ..models.sarimax import Sarimax

        if isinstance(model, Sarimax):
            fitted = model.fit(clean, exog=exog)
        else:
            fitted = model.fit(clean)

        outcome = SelectionOutcome(
            model=fitted,
            technique="dayprofile" if spec.dayprofile is not None else "sarimax",
            test_rmse=record.rmse,
            best_spec=spec,
            seasonality=None,
            shock_calendar=shock_calendar,
            n_evaluated=0,
        )
        monitor = ModelMonitor.for_outcome(outcome, fitted_at=record.fitted_at)
        self._entries[self._key(instance, metric)] = PlannerEntry(
            outcome=outcome, monitor=monitor, series=series
        )
        return outcome

    def telemetry(
        self, instance: str | None = None, metric: str | None = None
    ) -> RunTrace | None:
        """Engine telemetry of cached selections.

        With ``instance`` and ``metric``, returns the
        :class:`~repro.engine.telemetry.RunTrace` the pipeline recorded
        while choosing that metric's current model — stage timings,
        candidate fit/fail/prune counts, worker utilisation, winner
        lineage, plus the data-plane and racing counters
        (``bytes_broadcast`` vs ``bytes_tasks``, rung populations,
        ``candidates_pruned_by_racing``, ``warm_start_hits``; see
        :class:`~repro.engine.telemetry.RunTrace`) — or ``None`` when no
        model has been selected yet (or the entry was rehydrated via
        :meth:`restore_model`, which runs no pipeline).

        With no arguments, returns one merged trace across every cached
        selection — the planner-wide view the streaming telemetry
        surfaces — with the repository's write-retry counters folded
        into the trace's ``faults`` block, or ``None`` when nothing has
        been selected *and* no fault-plane activity was recorded. Asking
        for an instance without a metric (or vice versa) is an error.
        """
        if (instance is None) != (metric is None):
            raise DataError("telemetry needs both instance and metric, or neither")
        if instance is not None:
            entry = self._entries.get(self._key(instance, metric))
            if entry is None:
                return None
            return entry.outcome.trace
        traces = [e.outcome.trace for e in self._entries.values() if e.outcome.trace is not None]
        fault_counters = self.repository.fault_counters
        if not traces and not fault_counters:
            return None
        merged = RunTrace()
        for trace in traces:
            merged.merge(trace)
        merged.absorb_faults(fault_counters)
        return merged

    def observe(self, instance: str, metric: str, values) -> StalenessVerdict:
        """Feed newly arrived observations to the staleness monitor."""
        entry = self._entries.get(self._key(instance, metric))
        if entry is None:
            raise DataError(
                f"no model selected yet for {instance}/{metric}; call select_model first"
            )
        entry.monitor.observe(values)
        return entry.verdict()

    # ------------------------------------------------------------------
    # Forecast plane
    # ------------------------------------------------------------------
    def forecast(
        self,
        instance: str,
        metric: str,
        horizon: int | None = None,
        alpha: float = 0.05,
    ) -> Forecast:
        """Forecast a metric with the (possibly cached) selected model."""
        outcome = self.select_model(instance, metric)
        if horizon is None:
            horizon = self.frequency.split_rule.horizon
        return outcome.forecast(horizon, alpha=alpha).clipped(0.0)

    def threshold_advisory(
        self,
        instance: str,
        metric: str,
        threshold: float,
        horizon: int | None = None,
    ) -> BreachPrediction:
        """Proactive monitoring: will the metric breach ``threshold`` soon?"""
        return predict_breach(self.forecast(instance, metric, horizon), threshold)

    def capacity_recommendation(
        self,
        instance: str,
        metric: str,
        horizon: int | None = None,
        percentile: float = 95.0,
        headroom: float = 0.10,
        unit: float = 1.0,
    ) -> CapacityRecommendation:
        """Sizing: how much of this resource should be provisioned?"""
        return recommend_capacity(
            self.forecast(instance, metric, horizon),
            percentile=percentile,
            headroom=headroom,
            unit=unit,
        )
