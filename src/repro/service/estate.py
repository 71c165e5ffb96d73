"""Estate-wide capacity planning: many clusters, many metrics, one report.

Section 8 of the paper describes the production reality: "the approach is
being applied across several thousand customers, covering 1000's of
workloads involving different components in the technological stack" —
databases, application containers, storage layers. The per-series pipeline
(:mod:`repro.selection.auto`) stays the same; what changes at estate scale
is orchestration:

* every (workload, metric) pair gets its own model, and selection **fans
  out across the pairs** on a shared
  :class:`~repro.engine.executor.Executor` — pass a
  :class:`~repro.engine.PoolExecutor` (or construct the planner with one)
  and the estate parallelises across series, one worker per workload,
  with grid evaluation inside each worker kept serial so the pool is
  never nested;
* systems flagged *in-fault* by the crash rules are excluded from
  forecasting and surfaced separately ("manual override is needed to
  accommodate systems that are in-fault");
* the output is a fleet report: per-workload advisories ranked by urgency
  so an operator sees the next outage first, plus a
  :class:`~repro.engine.telemetry.RunTrace` recording per-workload
  wall-times, aggregate candidate counts and worker utilisation.

:class:`EstatePlanner` implements exactly that on top of any number of
registered series or :class:`~repro.service.planner.CapacityPlanner`
repositories. One pathological series cannot take the report down — a
workload whose selection fails (or whose worker dies) lands in
``failed`` with the captured error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from ..core.timeseries import TimeSeries
from ..engine.executor import Executor, SerialExecutor
from ..engine.telemetry import RunTrace
from ..exceptions import DataError, SelectionError
from ..selection.auto import AutoConfig, SelectionOutcome, auto_select
from ..shocks.faults import FaultPolicy, FaultVerdict, discard_faults
from .selection_cache import SelectionCache
from .thresholds import BreachPrediction, BreachSeverity, predict_breach

__all__ = ["WorkloadKey", "WorkloadStatus", "EstateEntry", "EstateReport", "EstatePlanner"]


@dataclass(frozen=True, order=True)
class WorkloadKey:
    """Identity of one monitored metric in the estate."""

    customer: str
    workload: str
    metric: str

    def __str__(self) -> str:
        return f"{self.customer}/{self.workload}/{self.metric}"


class WorkloadStatus(enum.Enum):
    """Planner state of a workload."""

    PENDING = "pending"
    MODELLED = "modelled"
    IN_FAULT = "in fault (excluded from forecasting)"
    FAILED = "selection failed"


#: Ranking order for the fleet report (most urgent first).
_SEVERITY_RANK = {
    BreachSeverity.CERTAIN: 0,
    BreachSeverity.LIKELY: 1,
    BreachSeverity.POSSIBLE: 2,
    BreachSeverity.NONE: 3,
}


@dataclass
class EstateEntry:
    """Everything the estate planner knows about one workload metric."""

    key: WorkloadKey
    series: TimeSeries
    threshold: float | None
    status: WorkloadStatus = WorkloadStatus.PENDING
    model_label: str = ""
    test_rmse: float = float("nan")
    advisory: BreachPrediction | None = None
    detail: str = ""
    #: Wall-clock seconds the workload's selection took (0 until processed).
    seconds: float = 0.0
    #: Per-selection engine telemetry (None for in-fault/failed workloads
    #: and for selection-cache hits, which run no fresh selection).
    trace: RunTrace | None = None
    #: The full selection outcome (model, leaderboard, shock calendar);
    #: feeds the estate selection cache. None until modelled.
    outcome: SelectionOutcome | None = field(default=None, repr=False)


@dataclass
class EstateReport:
    """Fleet-wide summary, advisories ranked most-urgent first."""

    entries: list[EstateEntry]
    #: Estate-level telemetry: fan-out timing, per-workload wall-times,
    #: aggregated candidate counters and worker utilisation.
    trace: RunTrace | None = None

    @property
    def modelled(self) -> list[EstateEntry]:
        return [e for e in self.entries if e.status is WorkloadStatus.MODELLED]

    @property
    def in_fault(self) -> list[EstateEntry]:
        return [e for e in self.entries if e.status is WorkloadStatus.IN_FAULT]

    @property
    def failed(self) -> list[EstateEntry]:
        return [e for e in self.entries if e.status is WorkloadStatus.FAILED]

    def ranked_advisories(self) -> list[EstateEntry]:
        """Modelled workloads with thresholds, most urgent breach first."""
        with_advice = [e for e in self.modelled if e.advisory is not None]
        return sorted(
            with_advice,
            key=lambda e: (
                _SEVERITY_RANK[e.advisory.severity],
                e.advisory.first_breach_step or 1_000_000,
            ),
        )

    def summary_lines(self) -> list[str]:
        lines = [
            f"estate: {len(self.entries)} workload metrics — "
            f"{len(self.modelled)} modelled, {len(self.in_fault)} in fault, "
            f"{len(self.failed)} failed"
        ]
        for entry in self.ranked_advisories():
            lines.append(f"  {entry.key}: {entry.advisory.describe()} [{entry.model_label}]")
        for entry in self.in_fault:
            lines.append(f"  {entry.key}: {entry.detail}")
        return lines


def _evaluate_entry(
    entry: EstateEntry,
    config: AutoConfig,
    fault_policy: FaultPolicy,
    horizon: int | None,
) -> EstateEntry:
    """Process one workload: repair → fault check → select → advise.

    Module-level and argument-pure so a :class:`PoolExecutor` can ship it
    to worker processes; mutates and returns ``entry``.
    """
    period = entry.series.frequency.default_period
    # Figure 4 order: repair agent gaps first, then fault analysis.
    from ..core.preprocessing import interpolate_missing

    try:
        repaired = interpolate_missing(entry.series)
    except DataError as exc:
        entry.status = WorkloadStatus.FAILED
        entry.detail = str(exc)
        return entry
    analysis = discard_faults(repaired, period=period, policy=fault_policy)
    if analysis.verdict is FaultVerdict.IN_FAULT:
        entry.status = WorkloadStatus.IN_FAULT
        entry.detail = analysis.describe()
        return entry
    try:
        outcome = auto_select(analysis.series, config=config)
    except (SelectionError, DataError) as exc:
        entry.status = WorkloadStatus.FAILED
        entry.detail = str(exc)
        return entry
    entry.status = WorkloadStatus.MODELLED
    entry.model_label = outcome.model.label()
    entry.test_rmse = outcome.test_rmse
    entry.detail = analysis.describe()
    entry.trace = outcome.trace
    entry.outcome = outcome
    _advise(entry, outcome, horizon)
    return entry


def _advise(entry: EstateEntry, outcome: SelectionOutcome, horizon: int | None) -> None:
    """Attach a breach advisory to a modelled entry (threshold permitting)."""
    if entry.threshold is None:
        return
    advisory_horizon = horizon or entry.series.frequency.split_rule.horizon
    forecast = outcome.forecast(advisory_horizon).clipped(0.0)
    entry.advisory = predict_breach(forecast, entry.threshold)


def _evaluate_entry_task(payload) -> EstateEntry:
    """Executor task wrapper: unpack one ``(entry, config, policy, horizon)``."""
    entry, config, fault_policy, horizon = payload
    return _evaluate_entry(entry, config, fault_policy, horizon)


class EstatePlanner:
    """Capacity planning across a whole monitored estate.

    Parameters
    ----------
    config:
        Selection configuration applied to every workload.
    fault_policy:
        Crash handling policy (see :mod:`repro.shocks.faults`).
    horizon:
        Forecast horizon (samples) used for advisories; defaults to the
        Table 1 horizon of each series' frequency.
    executor:
        Default execution backend for :meth:`report`. A
        :class:`~repro.engine.PoolExecutor` fans selection out across
        (workload, metric) pairs — the estate-scale parallelism of
        Section 8; ``None`` processes workloads serially in-process.
    cache:
        The estate's :class:`~repro.service.selection_cache.SelectionCache`
        implementing the paper's reuse-for-one-week rule: re-registering
        an unchanged (workload, metric) series re-uses the stored
        selection outcome (zero grid fits) until whoever serves the
        model invalidates it as expired, degraded or outgrown (the
        streaming scheduler's staleness check). ``None`` builds a fresh
        cache; pass a shared instance to pool reuse across planners.
    """

    def __init__(
        self,
        config: AutoConfig | None = None,
        fault_policy: FaultPolicy | None = None,
        horizon: int | None = None,
        executor: Executor | None = None,
        cache: SelectionCache | None = None,
    ) -> None:
        self.config = config or AutoConfig()
        self.fault_policy = fault_policy or FaultPolicy()
        self.horizon = horizon
        self.executor = executor
        self.cache = cache if cache is not None else SelectionCache()
        self._entries: dict[WorkloadKey, EstateEntry] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        customer: str,
        workload: str,
        metric: str,
        series: TimeSeries,
        threshold: float | None = None,
    ) -> WorkloadKey:
        """Add (or replace) one workload metric in the estate."""
        if not isinstance(series, TimeSeries):
            raise DataError("series must be a TimeSeries")
        key = WorkloadKey(customer=customer, workload=workload, metric=metric)
        self._entries[key] = EstateEntry(key=key, series=series, threshold=threshold)
        return key

    def adopt(
        self,
        customer: str,
        workload: str,
        metric: str,
        series: TimeSeries,
        outcome: SelectionOutcome,
        threshold: float | None = None,
    ) -> WorkloadKey:
        """Install a pre-fitted selection outcome without running the grid.

        The bulk-seeding path (restarts, benchmarks): the entry lands
        ``MODELLED`` immediately and the outcome is stored in the
        selection cache, so the normal lifecycle rules govern it exactly
        as if :meth:`report` had selected it here. No advisory is
        attached — the streaming scheduler grades on its own clock.
        """
        key = self.register(customer, workload, metric, series, threshold=threshold)
        entry = self._entries[key]
        entry.status = WorkloadStatus.MODELLED
        entry.model_label = outcome.model.label()
        entry.test_rmse = outcome.test_rmse
        entry.detail = "adopted pre-fitted outcome"
        entry.outcome = outcome
        self.cache.put(key, entry.series, self.config, outcome)
        return key

    def register_cluster_run(
        self,
        customer: str,
        workload: str,
        run,
        thresholds: dict[str, float] | None = None,
    ) -> list[WorkloadKey]:
        """Register every metric of every instance in a simulator run."""
        thresholds = thresholds or {}
        keys = []
        for instance, bundle in run.instances.items():
            for metric, series in bundle.as_dict().items():
                keys.append(
                    self.register(
                        customer,
                        f"{workload}:{instance}",
                        metric,
                        series,
                        threshold=thresholds.get(metric),
                    )
                )
        return keys

    @property
    def size(self) -> int:
        return len(self._entries)

    def keys(self) -> list[WorkloadKey]:
        return sorted(self._entries)

    def entry(self, key: WorkloadKey) -> EstateEntry:
        """The live estate entry for ``key`` (streaming layer reads these)."""
        try:
            return self._entries[key]
        except KeyError:
            raise DataError(f"unknown workload {key}") from None

    def forget(self, key: WorkloadKey) -> bool:
        """Drop a workload from the estate (shard rebalance migration).

        Removes the live entry and invalidates its selection-cache slot;
        returns ``False`` when the key was never registered. The workload
        re-registers from scratch wherever it lands next.
        """
        removed = self._entries.pop(key, None) is not None
        self.cache.invalidate(key)
        return removed

    # ------------------------------------------------------------------
    def report(self, executor: Executor | None = None) -> EstateReport:
        """Process every pending workload and build the fleet report.

        Workloads fan out across ``executor`` (falling back to the
        planner's default, then to serial in-process execution). On a
        pool executor each workload's selection runs in its own worker
        with inner grid parallelism pinned to one process — parallelism
        across series, not nested pools. Workloads are processed
        independently; one pathological series cannot take the estate
        report down (it lands in ``failed``).

        Pending workloads first consult the selection cache: an entry
        whose series and config fingerprints match a stored (not yet
        invalidated) outcome is modelled from the cache (zero grid fits,
        counted as ``selection_cache_hits``); everything else runs a
        fresh selection and is stored for next time.
        """
        if not self._entries:
            raise DataError("no workloads registered")
        executor = executor if executor is not None else self.executor
        fanned_out = executor is not None and not isinstance(executor, SerialExecutor)
        if executor is None:
            executor = SerialExecutor()
        config = self.config
        if fanned_out:
            # Workers each own one series; the grid inside must not spawn
            # a nested pool of its own.
            config = replace(config, n_jobs=1)

        trace = RunTrace()
        pending = []
        for key in self.keys():
            entry = self._entries[key]
            if entry.status is not WorkloadStatus.PENDING:
                continue
            cached = self.cache.get(key, entry.series, config)
            if cached is not None:
                self._model_from_cache(entry, cached)
                trace.count("selection_cache_hits")
                continue
            trace.count("selection_cache_misses")
            pending.append(key)
        payloads = [
            (self._entries[key], config, self.fault_policy, self.horizon)
            for key in pending
        ]
        with trace.stage(
            "fan-out", detail=f"{len(payloads)} workloads, {'pool' if fanned_out else 'serial'}"
        ):
            reports = executor.run(_evaluate_entry_task, payloads)
        trace.record_task_reports(reports)

        for key, task in zip(pending, reports):
            entry = self._entries[key]
            if task.ok:
                processed = task.value  # a pickled copy when pooled
                processed.seconds = task.seconds
                self._entries[key] = processed
                entry = processed
                if entry.status is WorkloadStatus.MODELLED and entry.outcome is not None:
                    self.cache.put(key, entry.series, config, entry.outcome)
            else:
                entry.status = WorkloadStatus.FAILED
                entry.detail = f"executor: {task.error}"
            trace.add_stage("workload", task.seconds, detail=str(key))
            if entry.trace is not None:
                for counter, value in entry.trace.counters.items():
                    trace.count(counter, value)

        for entry in self._entries.values():
            trace.count(f"workloads_{entry.status.name.lower()}")
        return EstateReport(entries=[self._entries[k] for k in self.keys()], trace=trace)

    def _model_from_cache(self, entry: EstateEntry, outcome: SelectionOutcome) -> None:
        """Model an entry from a cached outcome — zero grid fits.

        The advisory is recomputed against the entry's *current*
        threshold (re-registration may have changed it); ``trace`` stays
        ``None`` so the estate trace never double-counts the original
        selection's candidate counters.
        """
        entry.status = WorkloadStatus.MODELLED
        entry.model_label = outcome.model.label()
        entry.test_rmse = outcome.test_rmse
        entry.detail = "selection cache hit"
        entry.outcome = outcome
        entry.trace = None
        entry.seconds = 0.0
        _advise(entry, outcome, self.horizon)

    def run(self) -> EstateReport:
        """Backwards-compatible alias for :meth:`report`."""
        return self.report()
