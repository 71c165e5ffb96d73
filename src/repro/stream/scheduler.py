"""The forecast scheduler: closed windows in, fresh models & advisories out.

This is the paper's Section 7 model lifecycle run as an event loop. Each
finalised hourly window is one heartbeat:

1. the window's value is appended to the key's hourly history;
2. once a key has a full Table 1 observation budget it is registered with
   the :class:`~repro.service.estate.EstatePlanner` and selected;
3. every subsequent window **rolls the stored model's state forward**
   instead of refitting: the window's observations run through the
   model's one-step filter (``advance``; ARIMA/SARIMA continue the CSS
   filter from O(1) rolled state, never re-filtering the history, and
   shock-regressor fits get their calendar rows from
   :meth:`~repro.selection.auto.SelectionOutcome.advance`), the
   forecast origin moves to the stream head, and staleness becomes a
   cheap per-key drift check — a two-sided CUSUM on the standardized
   one-step innovations the roll produces for free
   (:mod:`repro.stream.drift`) plus the weekly-expiry and data-growth
   rules. Only a *tripped* check queues a re-selection, so the expensive
   grid runs on real regime change, not on a timer. Rolling is the only
   way a served key stays fresh: an empty window rolls in as the
   model's own one-step forecast (a zero innovation the CUSUM never
   sees, while the history keeps the gap for selection to
   interpolate), and a roll that raises re-selects the key as degraded;
4. queued re-selections run through the planner's
   :meth:`~repro.service.estate.EstatePlanner.report`, fanning out on the
   injected :class:`~repro.engine.executor.Executor` and consulting the
   estate :class:`~repro.service.selection_cache.SelectionCache` first —
   an unchanged workload (same series and config fingerprints, not
   invalidated by a stale verdict) costs **zero grid fits**;
5. each tick re-grades every live model's forecast against its threshold
   *from the current watermark onwards* (the part of the horizon still in
   the future), producing the advisories the alerting layer debounces.
   Grading thinks in **cohorts**: keys whose winning models share an
   exponential-smoothing or day-profile spec, or a plain ARIMA/SARIMA
   order, and a forecast window are forecast in one batched ``(batch,
   horizon)`` kernel call (:func:`repro.models.ets.forecast_cohort_arrays`
   and its day-profile and ARIMA twins) and the whole block is graded in
   one array pass (:func:`repro.service.thresholds.predict_breach_arrays`),
   bit-identical to grading each key alone. Families that cannot join a
   cohort (TBATS, regression SARIMAX fits) grade one key at a time
   through :func:`~repro.service.thresholds.predict_breach`, the block
   grader's one-row case.
   An advisory memo per key skips the forecast entirely while (model
   state, elapsed offset, threshold) are unchanged. It also keeps the
   band it graded, which :meth:`ForecastScheduler.planning_view` hands to
   the plan escalator and the estate planner, so a tick forecasts each
   key once.

The scheduler never sleeps and never reads the wall clock directly: time
is the injected :class:`~repro.stream.clock.Clock`, falling back to the
event-time high watermark of the windows it has consumed.

Selection failure does not silence a key. The scheduler degrades instead
of dropping advisories, walking a fallback ladder per key:

1. **cached model** — the last outcome that successfully modelled the
   key keeps grading (stale, but calibrated);
2. **day-profile** *(opt-in, ``dayprofile=True``)* — a
   :class:`~repro.models.dayprofile.DayProfile` clustering fit on the
   key's own streamed history grades when it holds at least three
   complete cycles (shape-aware, still selection-free);
3. **seasonal-naive** — otherwise a
   :class:`~repro.models.naive.SeasonalNaive` fitted on the key's own
   streamed history grades instead (crude, but alert continuity holds).

Degraded advisories carry the producing mode in
:attr:`~repro.service.thresholds.BreachPrediction.degraded` and are
counted in the trace's ``faults`` block; a failed key is re-registered
on its next window (reason ``"recovery"``) so degradation is a bridge,
not a terminal state. When a cohort's batched roll or grading fails,
its keys fall back to their scalar paths one by one — a sick key drops
out of its cohort, not the whole batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.frequency import Frequency
from ..core.timeseries import TimeSeries
from ..engine.executor import Executor
from ..engine.telemetry import RunTrace
from ..exceptions import DataError
from ..models.arima import FittedArima, forecast_cohort_arrays as arima_forecast_cohort_arrays
from ..models.base import Forecast
from ..models.dayprofile import (
    DayProfile,
    FittedDayProfile,
    advance_cohort as dayprofile_advance_cohort,
    forecast_cohort_arrays as dayprofile_forecast_cohort_arrays,
)
from ..models.ets import FittedExpSmoothing, advance_cohort, forecast_cohort_arrays
from ..models.naive import Naive, SeasonalNaive
from ..planner.scoring import ForecastBand
from ..selection.auto import SelectionOutcome
from ..selection.staleness import (
    WEEK_SECONDS,
    StalenessReason,
    StalenessVerdict,
    staleness_verdict,
)
from ..service.estate import EstatePlanner, EstateReport, WorkloadKey, WorkloadStatus
from ..service.thresholds import (
    BreachPrediction,
    predict_breach,
    predict_breach_arrays,
)
from .aggregate import ClosedWindow
from .clock import Clock
from .drift import CusumDetector
from .ingest import StreamKey
from .keys import KeyTable

__all__ = ["RefitEvent", "SchedulerTick", "ForecastScheduler"]


@dataclass(frozen=True)
class RefitEvent:
    """One staleness-triggered (or initial) selection decision."""

    key: WorkloadKey
    reason: str
    at: float


@dataclass
class SchedulerTick:
    """Everything one batch of closed windows caused.

    Attributes
    ----------
    advisories:
        Current breach grading per workload key (only keys with a
        threshold and a live model appear).
    refits:
        Selections queued this tick — ``reason`` is ``"initial"`` for a
        first-time registration or the staleness verdict otherwise.
    report:
        The estate report of the selection run, when one ran.
    verdicts:
        Staleness verdicts of the keys rolled this tick.
    """

    advisories: dict[WorkloadKey, BreachPrediction] = field(default_factory=dict)
    refits: list[RefitEvent] = field(default_factory=list)
    report: EstateReport | None = None
    verdicts: dict[WorkloadKey, StalenessVerdict] = field(default_factory=dict)


@dataclass
class _KeyHistory:
    """Hourly history of one key as a growable (start, values) pair.

    ``trim`` is amortised O(1): instead of slicing the list on every
    over-cap append (O(cap) per window once the cap is reached), a dead
    prefix offset advances past trimmed samples and the list is
    compacted only once the dead prefix itself outgrows the cap — total
    compaction work stays linear over the stream's whole life. ``start``
    and ``len`` always describe the *live* suffix.
    """

    start: float | None = None
    values: list[float] = field(default_factory=list)
    _offset: int = field(default=0, repr=False)

    def __len__(self) -> int:
        return len(self.values) - self._offset

    def append(self, window: ClosedWindow) -> None:
        if self.start is None:
            self.start = window.start
        self.values.append(window.value)

    def trim(self, cap: int, step: float) -> None:
        live = len(self.values) - self._offset
        if live > cap:
            drop = live - cap
            self._offset += drop
            self.start += drop * step
        if self._offset > max(cap, 64):
            del self.values[: self._offset]
            self._offset = 0

    def series(self, frequency: Frequency, name: str) -> TimeSeries:
        return TimeSeries(
            values=np.asarray(self.values[self._offset :], dtype=float),
            frequency=frequency,
            start=float(self.start),
            name=name,
        )


@dataclass
class _CachedModel:
    """Fallback rung 1: the key's last good outcome, kept for degraded grading.

    Duck-typed against :class:`~repro.service.estate.EstateEntry` for the
    two attributes degraded grading reads, ``outcome`` and ``threshold``.
    """

    outcome: object
    threshold: float


@dataclass
class _LiveModel:
    """A rolled-forward copy of one key's winning model.

    ``source`` is the selection outcome the roll chain started from —
    its identity detects refits (a new outcome starts a new chain) and
    its fit-time ``sigma2`` standardizes the innovations the CUSUM drift
    detector consumes. ``model`` is advanced one closed-window batch at
    a time via the family's ``advance``; its forecast origin therefore
    tracks the stream head between refits.
    """

    source: SelectionOutcome
    model: object
    fitted_at: float
    initial_len: int
    detector: CusumDetector = field(default_factory=CusumDetector)


@dataclass
class _CachedAdvisory:
    """Memo of one key's last grading and the band it graded.

    A grading is a pure function of (model state identity, elapsed
    windows since the forecast origin, threshold); ticks that close no
    new window for a key re-serve the memo instead of re-running the
    forecast, and :meth:`ForecastScheduler.planning_view` serves the
    graded ``mean``/``upper`` band rows (clipped, still-future part) to
    the planner. Any roll or refit replaces the model object, so
    identity comparison is the exact invalidation rule.
    """

    model: object
    elapsed: int
    threshold: float
    advisory: BreachPrediction
    mean: np.ndarray
    upper: np.ndarray

    def serves(self, model, elapsed: int, threshold: float) -> bool:
        return self.model is model and self.elapsed == elapsed and self.threshold == threshold


@dataclass(frozen=True)
class _CohortJob:
    """One healthy-path grading deferred into a batched cohort dispatch."""

    kid: int
    wkey: WorkloadKey
    entry: object
    model: FittedExpSmoothing | FittedDayProfile | FittedArima
    base_horizon: int
    elapsed: int


#: Sentinel: the advisory will be produced by the cohort pass instead.
_DEFERRED = object()

#: Families whose same-spec keys roll as one batched recursion.
_ROLL_COHORTS = {FittedExpSmoothing: "ets", FittedDayProfile: "dayprofile"}


def _cohort_family(model) -> tuple[str, object] | None:
    """(cohort forecaster, spec) of a model that grades in cohorts, else ``None``.

    Keys whose models share both grade as one batched forecast block.
    Regression SARIMAX fits (a subclass of :class:`FittedArima`) need
    their own future design matrix and grade one at a time.
    """
    if isinstance(model, FittedExpSmoothing):
        return "ets", model.spec
    if isinstance(model, FittedDayProfile):
        return "dayprofile", model.spec
    if type(model) is FittedArima:
        return "arima", (model.order, model.seasonal)
    return None


class ForecastScheduler:
    """Event loop turning closed windows into model upkeep and advisories.

    Parameters
    ----------
    planner:
        The estate planner that owns selection and the selection cache.
    customer:
        Estate customer label for every streamed workload key.
    thresholds:
        Capacity thresholds per *metric name* (e.g. ``{"cpu": 80.0}``);
        keys whose metric has no threshold are modelled but not graded.
    executor:
        Engine executor the re-selection fan-out runs on; ``None`` uses
        the planner's default (serial in-process).
    clock:
        Injected time source for refit/advisory timestamps; ``None``
        falls back to the event-time high watermark.
    horizon:
        Advisory horizon in windows; ``None`` uses the Table 1 horizon
        and ``0`` disables advisory grading entirely.
    min_observations:
        Windows required before a key is first registered and selected;
        ``None`` uses the Table 1 observation budget for the window
        frequency (1008 hourly).
    history_cap:
        Maximum hourly observations retained per key (oldest trimmed);
        ``None`` keeps everything. Selection only ever uses the latest
        Table 1 window, so 2× the observation budget is plenty.
    window_frequency:
        Granularity of the incoming windows (hourly).
    trace:
        Telemetry sink; a fresh :class:`RunTrace` when not supplied.
    repository:
        Optional :class:`~repro.agent.repository.MetricsRepository` the
        scheduler persists into as it goes: every tick's closed windows
        land in one ``executemany`` transaction
        (:meth:`~repro.agent.repository.MetricsRepository.store_windows`)
        and every selection run's winners in another
        (:meth:`~repro.agent.repository.MetricsRepository.store_models`)
        — one transaction per flush, not one per key, so persistence
        cost does not multiply with estate size. Persistence failures
        degrade (counted as ``repository_flush_failures`` faults), they
        never stop the tick.
    """

    def __init__(
        self,
        planner: EstatePlanner,
        customer: str = "stream",
        thresholds: dict[str, float] | None = None,
        executor: Executor | None = None,
        clock: Clock | None = None,
        horizon: int | None = None,
        min_observations: int | None = None,
        history_cap: int | None = None,
        window_frequency: Frequency = Frequency.HOURLY,
        trace: RunTrace | None = None,
        repository=None,
        key_table: KeyTable | None = None,
        dayprofile: bool = False,
    ) -> None:
        if min_observations is None:
            min_observations = window_frequency.split_rule.observations
        if min_observations < 2:
            raise DataError("min_observations must be at least 2")
        if history_cap is not None and history_cap < min_observations:
            raise DataError("history_cap cannot be smaller than min_observations")
        self.planner = planner
        self.customer = customer
        self.thresholds = dict(thresholds or {})
        self.executor = executor
        self.clock = clock
        self.horizon = horizon
        self.min_observations = int(min_observations)
        self.history_cap = history_cap
        self.window_frequency = window_frequency
        self.trace = trace if trace is not None else RunTrace()
        self.repository = repository
        #: Opt-in day-profile rung of the degradation ladder (between
        #: cached-model and seasonal-naive). Off by default so the
        #: two-rung ladder's behaviour is unchanged unless requested.
        self.dayprofile = bool(dayprofile)
        #: Shared (instance, metric) ↔ dense id table; per-key state below
        #: is keyed by the id so the hot loops never hash string tuples.
        #: The stream runtime hands in the bus's table so one id means
        #: the same key on the bus, in the aggregator and here.
        self.key_table = key_table if key_table is not None else KeyTable()
        self._histories: dict[int, _KeyHistory] = {}
        self._registered: set[int] = set()
        #: Cached grading order (registered kids sorted by StreamKey);
        #: rebuilt only when registration changes, not every tick.
        self._registered_order: list[int] | None = None
        self._event_time = -math.inf
        self.refit_log: list[RefitEvent] = []
        #: Last good outcome per key — rung 1 of the degradation ladder.
        self._fallback: dict[int, _CachedModel] = {}
        #: Rolled model states per key (keys whose family supports it).
        self._live: dict[int, _LiveModel] = {}
        #: Last advisory per key, keyed on (model identity, elapsed, threshold).
        self._advisory_memo: dict[int, _CachedAdvisory] = {}

    # ------------------------------------------------------------------
    def workload_key(self, instance: str, metric: str) -> WorkloadKey:
        return WorkloadKey(customer=self.customer, workload=instance, metric=metric)

    def _wkey(self, kid: int) -> WorkloadKey:
        instance, metric = self.key_table.key_of(kid)
        return WorkloadKey(customer=self.customer, workload=instance, metric=metric)

    def _now(self) -> float:
        if self.clock is not None:
            return self.clock.now()
        return self._event_time

    def history(self, instance: str, metric: str) -> TimeSeries:
        """The hourly history the scheduler holds for a key."""
        kid = self.key_table.id_of(instance, metric)
        if kid is None:
            raise DataError(f"no streamed history for {instance}/{metric}")
        return self._history_series(kid)

    def _history_series(self, kid: int) -> TimeSeries:
        state = self._histories.get(kid)
        instance, metric = self.key_table.key_of(kid)
        if state is None or not len(state):
            raise DataError(f"no streamed history for {instance}/{metric}")
        return state.series(self.window_frequency, f"{instance}.{metric}")

    def seed_history(self, instance: str, metric: str, series: TimeSeries) -> None:
        """Bootstrap a key's history from stored data (e.g. a repository).

        Lets a restarted stream resume from a
        :class:`~repro.agent.repository.MetricsRepository` time-range
        read instead of replaying weeks of raw polls. The seeded series
        must be at the scheduler's window frequency; subsequent windows
        must continue it contiguously.
        """
        if series.frequency is not self.window_frequency:
            raise DataError(
                f"seed history must be {self.window_frequency.name}, got {series.frequency.name}"
            )
        kid = self.key_table.intern(instance, metric)
        if kid in self._histories:
            raise DataError(f"history already present for {instance}/{metric}")
        self._histories[kid] = _KeyHistory(
            start=float(series.start), values=[float(v) for v in series.values]
        )
        self._event_time = max(self._event_time, series.end + series.frequency.seconds)

    def adopt_model(
        self, instance: str, metric: str, outcome: SelectionOutcome
    ) -> WorkloadKey:
        """Install a pre-selected outcome for a seeded key — zero grid fits.

        The bulk-seeding path for restarts and benchmarks: the key must
        already hold a seeded or streamed history; the outcome lands
        ``MODELLED`` in the planner (and the selection cache, so the
        normal lifecycle rules govern it) and the key starts rolling and
        grading on the next tick. The model must be able to roll (have
        an ``advance``), as every family selection returns can.
        """
        if not hasattr(outcome.model, "advance"):
            raise DataError(f"adopt_model needs a model that rolls; {outcome.model.label()} cannot")
        kid = self.key_table.intern(instance, metric)
        state = self._histories.get(kid)
        if state is None or not len(state):
            raise DataError(
                f"adopt_model requires history for {instance}/{metric}; seed it first"
            )
        wkey = self.planner.adopt(
            customer=self.customer,
            workload=instance,
            metric=metric,
            series=self.history(instance, metric),
            outcome=outcome,
            threshold=self.thresholds.get(metric),
        )
        self._registered.add(kid)
        self._registered_order = None
        return wkey

    # ------------------------------------------------------------------
    # The event loop body
    # ------------------------------------------------------------------
    def on_windows(self, windows: list[ClosedWindow]) -> SchedulerTick:
        """Consume a batch of finalised windows; the stream's heartbeat."""
        tick = SchedulerTick()
        step = float(self.window_frequency.seconds)
        intern = self.key_table.intern
        fresh: dict[int, list[float]] = {}
        for window in windows:
            kid = intern(window.instance, window.metric)
            state = self._histories.setdefault(kid, _KeyHistory())
            if state.start is not None and len(state):
                expected = state.start + len(state) * step
                if abs(window.start - expected) > 1e-6 * step:
                    raise DataError(
                        f"window for {window.instance}/{window.metric} at {window.start} "
                        f"breaks hourly continuity (expected {expected})"
                    )
            state.append(window)
            if self.history_cap is not None:
                state.trim(self.history_cap, step)
            fresh.setdefault(kid, []).append(window.value)
            self._event_time = max(self._event_time, window.start + step)
            self.trace.count("stream_windows_observed")

        if windows and self.repository is not None:
            self._persist_windows(windows)

        now = self._now()
        rolled = self._advance_live(fresh)
        pending = False
        for kid in fresh:
            wkey = self._wkey(kid)
            if kid in self._registered:
                if self._entry_failed(wkey):
                    # A failed selection left the key degraded; re-register
                    # with the grown history so the next report retries it.
                    self._register(kid)
                    pending = True
                    event = RefitEvent(key=wkey, reason="recovery", at=now)
                    tick.refits.append(event)
                    self.refit_log.append(event)
                    self.trace.fault("recovery_reselections")
                    continue
                if kid not in rolled:
                    continue  # not modelled yet (pending or in fault)
                verdict = self._absorb_roll(kid, wkey, rolled[kid], now)
                tick.verdicts[wkey] = verdict
                if verdict.stale:
                    self._register(kid)
                    pending = True
                    event = RefitEvent(key=wkey, reason=verdict.reason.value, at=now)
                    tick.refits.append(event)
                    self.refit_log.append(event)
                    self.trace.count("stream_refits_triggered")
            elif len(self._histories[kid]) >= self.min_observations:
                self._register(kid)
                pending = True
                event = RefitEvent(key=wkey, reason="initial", at=now)
                tick.refits.append(event)
                self.refit_log.append(event)
                self.trace.count("stream_initial_selections")

        if pending:
            tick.report = self._run_selection()
        tick.advisories = self._grade_all(now)
        return tick

    def resync(self) -> EstateReport | None:
        """Re-register every key with its current history and re-select.

        The restart path: histories re-registered with *unchanged* data
        hit the estate selection cache (same series and config
        fingerprints) and cost zero grid fits; anything that drifted is
        re-selected for real. Returns the estate report (``None`` when
        the selection run itself failed and the tick degraded).
        """
        if not self._histories:
            raise DataError("nothing streamed yet; no keys to resync")
        for kid, state in self._histories.items():
            if len(state) >= self.min_observations:
                self._register(kid)
        return self._run_selection()

    # ------------------------------------------------------------------
    # Shard rebalance migration
    # ------------------------------------------------------------------
    def export_history(self, instance: str, metric: str) -> TimeSeries | None:
        """A key's hourly history for handoff, or ``None`` when empty."""
        kid = self.key_table.id_of(instance, metric)
        state = self._histories.get(kid) if kid is not None else None
        if state is None or not len(state):
            return None
        return state.series(self.window_frequency, f"{instance}.{metric}")

    def evict_key(self, instance: str, metric: str) -> None:
        """Forget one key entirely (it moved to another shard).

        Drops the streamed history, roll chain, fallback model, advisory
        memo and the planner entry. The receiving shard re-seeds from the
        exported history and re-registers on its next window.
        """
        kid = self.key_table.id_of(instance, metric)
        if kid is not None:
            self._histories.pop(kid, None)
            self._registered.discard(kid)
            self._registered_order = None
            self._live.pop(kid, None)
            self._fallback.pop(kid, None)
            self._advisory_memo.pop(kid, None)
        self.planner.forget(self.workload_key(instance, metric))

    # ------------------------------------------------------------------
    # Incremental state rolls
    # ------------------------------------------------------------------
    def _live_model_for(self, kid: int, outcome: SelectionOutcome) -> _LiveModel:
        """The key's roll chain, started afresh whenever ``outcome`` is new."""
        live = self._live.get(kid)
        if live is None or live.source is not outcome:
            live = _LiveModel(
                source=outcome,
                model=outcome.model,
                fitted_at=float(outcome.model.train.end),
                initial_len=len(outcome.model.train),
            )
            self._live[kid] = live
        return live

    def _advance_live(self, fresh: dict[int, list[float]]) -> dict[int, tuple | None]:
        """Roll every modelled key's state through this tick's closed windows.

        Same-spec exponential-smoothing and day-profile keys advance in
        one batched recursion per cohort
        (:func:`repro.models.ets.advance_cohort` and its day-profile
        twin); other families, and blocks holding an empty window, roll
        per key through :meth:`_roll_alone`. A key whose roll raises maps
        to ``None``, which :meth:`_absorb_roll` turns into a re-selection;
        its cohort peers still roll.
        """
        candidates: list[tuple[int, _LiveModel, list[float]]] = []
        for kid, values in fresh.items():
            if kid not in self._registered:
                continue
            try:
                entry = self.planner.entry(self._wkey(kid))
            except DataError:
                continue
            if entry.status is not WorkloadStatus.MODELLED or entry.outcome is None:
                continue
            candidates.append((kid, self._live_model_for(kid, entry.outcome), values))

        results: dict[int, tuple | None] = {}
        groups: dict[tuple, list[int]] = {}
        for i, (kid, live, values) in enumerate(candidates):
            family = _ROLL_COHORTS.get(type(live.model))
            # Scalar finiteness check: the per-tick block is a handful of
            # floats per key, where ndarray round-trips are pure overhead.
            if family is not None and all(math.isfinite(v) for v in values):
                groups.setdefault((family, live.model.spec, len(values)), []).append(i)
            else:
                groups.setdefault(("solo", i), []).append(i)
        for gkey, idxs in groups.items():
            if gkey[0] != "solo":
                roll = advance_cohort if gkey[0] == "ets" else dayprofile_advance_cohort
                models = [candidates[i][1].model for i in idxs]
                block = np.array([candidates[i][2] for i in idxs], dtype=float)
                try:
                    out, innovations = roll(models, block)
                except Exception:
                    pass  # cohort roll failed: retry the rows one by one
                else:
                    self.trace.count("stream_cohorts_dispatched")
                    self.trace.count("stream_cohort_rows", len(idxs))
                    for j, i in enumerate(idxs):
                        results[candidates[i][0]] = (out[j], innovations[j])
                    continue
            for i in idxs:
                kid, live, values = candidates[i]
                try:
                    results[kid] = self._roll_alone(live, values)
                except Exception:
                    results[kid] = None
        return results

    @staticmethod
    def _roll_alone(live: _LiveModel, values: list[float]) -> tuple:
        """Roll one key's chain through its windows, empty ones included.

        The roll goes through
        :meth:`~repro.selection.auto.SelectionOutcome.advance`, which
        hands shock-regressor fits their calendar rows. An empty
        (non-finite) window rolls in as the model's own one-step
        forecast: a zero innovation, which for the smoothing family is
        exactly the state-space prediction step. Only the other windows'
        innovations are returned, so the drift detector never sees a
        gap, and the chain stays in phase with the stream.
        """
        outcome, model = live.source, live.model
        if all(math.isfinite(v) for v in values):
            return outcome.advance(np.asarray(values, dtype=float), model=model)
        innovations = []
        for value in values:
            if math.isfinite(value):
                model, step = outcome.advance(np.array([value]), model=model)
                innovations.append(step[0])
            else:
                own = outcome.forecast(1, model=model).mean.values
                model, __ = outcome.advance(own, model=model)
        return model, np.asarray(innovations, dtype=float)

    def _absorb_roll(
        self, kid: int, wkey: WorkloadKey, rolled: tuple | None, now: float
    ) -> StalenessVerdict:
        """Install a rolled state and run the cheap staleness checks.

        The rules and their order are
        :func:`~repro.selection.staleness.staleness_verdict`'s; the
        accuracy signal is the CUSUM drift test on the roll's
        standardized innovations instead of a fresh forecast-vs-observed
        RMSE, so staying healthy costs O(new windows) per key per tick.
        A roll that raised (``rolled is None``) counts as degraded: the
        key is re-selected rather than served from an untrusted state.
        """
        live = self._live[kid]
        if rolled is None:
            tripped = True
        else:
            live.model, innovations = rolled
            self.trace.count("stream_rolls_applied", int(innovations.size))
            sigma2 = float(getattr(live.source.model, "sigma2", 0.0))
            scale = math.sqrt(sigma2) if sigma2 > 0 and math.isfinite(sigma2) else 1.0
            tripped = live.detector.update_many(np.asarray(innovations, dtype=float) / scale)

        verdict = staleness_verdict(
            age_seconds=max(0.0, now - live.fitted_at) if math.isfinite(now) else 0.0,
            degraded=tripped,
            observed=len(live.model.train) - live.initial_len,
            train_size=live.initial_len,
            baseline_rmse=float(live.source.test_rmse),
        )
        if verdict.reason is StalenessReason.DEGRADED:
            self.trace.count("stream_drift_refits")
        if verdict.stale:
            self._live.pop(kid, None)
            self.planner.cache.invalidate(wkey)
        return verdict

    # ------------------------------------------------------------------
    def _register(self, kid: int) -> None:
        instance, metric = self.key_table.key_of(kid)
        self.planner.register(
            customer=self.customer,
            workload=instance,
            metric=metric,
            series=self._history_series(kid),
            threshold=self.thresholds.get(metric),
        )
        self._registered.add(kid)
        self._registered_order = None

    def _entry_failed(self, wkey: WorkloadKey) -> bool:
        try:
            entry = self.planner.entry(wkey)
        except DataError:
            return False
        return entry.status is WorkloadStatus.FAILED

    def _run_selection(self) -> EstateReport | None:
        """Run the planner's fan-out; a whole-run failure degrades, not crashes.

        Per-entry failures are already captured inside
        :meth:`~repro.service.estate.EstatePlanner.report`; this guard
        covers the run itself dying (a broken executor that was told not
        to rebuild, an injected infrastructure error). The tick then
        carries no report, the affected keys stay pending/failed, and
        grading falls through the degradation ladder — advisories keep
        flowing.
        """
        try:
            report = self.planner.report(executor=self.executor)
        except Exception:
            self.trace.fault("selection_runs_failed")
            return None
        if report.trace is not None:
            for counter in (
                "selection_cache_hits",
                "selection_cache_misses",
                "candidates_fitted",
                "workloads_modelled",
                "workloads_failed",
            ):
                if counter in report.trace.counters:
                    self.trace.count(counter, report.trace.counters[counter])
        self.trace.count("stream_selection_runs")
        if self.repository is not None:
            self._persist_models(report)
        return report

    # ------------------------------------------------------------------
    # Batched repository persistence
    # ------------------------------------------------------------------
    def _persist_windows(self, windows: list[ClosedWindow]) -> None:
        """Flush one tick's closed windows in a single transaction."""
        try:
            written = self.repository.store_windows(windows)
        except Exception:
            self.trace.fault("repository_flush_failures")
        else:
            self.trace.count("repository_windows_persisted", written)

    def _persist_models(self, report: EstateReport) -> None:
        """Flush one selection run's winners in a single transaction."""
        from ..agent.repository import StoredModelRecord

        records = [
            StoredModelRecord(
                instance=entry.key.workload,
                metric=entry.key.metric,
                fitted_at=float(entry.outcome.model.train.end),
                label=entry.outcome.model.label(),
                spec=entry.outcome.spec_payload(),
                rmse=float(entry.outcome.test_rmse),
            )
            for entry in report.modelled
            if entry.outcome is not None
        ]
        if not records:
            return
        try:
            written = self.repository.store_models(records)
        except Exception:
            self.trace.fault("repository_flush_failures")
        else:
            self.trace.count("repository_models_persisted", written)

    # ------------------------------------------------------------------
    # Advisory grading
    # ------------------------------------------------------------------
    def _grade_order(self) -> list[int]:
        """Registered kids in StreamKey order, cached between ticks."""
        if self._registered_order is None:
            self._registered_order = sorted(self._registered, key=self.key_table.key_of)
        return self._registered_order

    def _grade_all(self, now: float) -> dict[WorkloadKey, BreachPrediction]:
        advisories: dict[WorkloadKey, BreachPrediction] = {}
        order: list[WorkloadKey] = []
        deferred: list[_CohortJob] = []
        for kid in self._grade_order():
            wkey = self._wkey(kid)
            order.append(wkey)
            try:
                entry = self.planner.entry(wkey)
            except DataError:
                continue
            if entry.threshold is None:
                continue
            if entry.status is WorkloadStatus.MODELLED and entry.outcome is not None:
                # Healthy path — and the moment to refresh rung 1 of the
                # degradation ladder with the newest good outcome.
                self._fallback[kid] = _CachedModel(
                    outcome=entry.outcome, threshold=entry.threshold
                )
                advisory = self._grade_healthy(kid, wkey, entry, now, deferred)
                if advisory is _DEFERRED:
                    continue
            else:
                # Selection failed (or never completed): degrade rather
                # than fall silent — alert continuity is the contract.
                advisory = self._grade_degraded(kid, entry.threshold, now)
                if advisory is not None:
                    self.trace.fault("degraded_advisories")
            if advisory is not None:
                advisories[wkey] = advisory
                self.trace.count("stream_advisories_graded")
        if deferred:
            self._grade_cohorts(deferred, advisories, now)
        # Cohort results land out of order; re-serve in registry order so
        # the alerting layer sees the sequence scalar grading would give.
        return {wk: advisories[wk] for wk in order if wk in advisories}

    def _grade_healthy(self, kid, wkey, entry, now, deferred):
        """Grade one modelled key, via memo, cohort deferral or scalar path."""
        outcome = entry.outcome
        model = self._serving_model(kid, outcome)
        base_horizon, elapsed = self._grading_window(model, now)
        if base_horizon is None:
            return None  # zero lookahead: grading disabled, not defaulted
        memo = self._advisory_memo.get(kid)
        if memo is not None and memo.serves(model, elapsed, entry.threshold):
            self.trace.count("stream_advisory_cache_hits")
            return memo.advisory
        if not outcome.uses_exog and _cohort_family(model) is not None:
            deferred.append(_CohortJob(kid, wkey, entry, model, base_horizon, elapsed))
            return _DEFERRED
        return self._grade_alone(kid, entry, model, elapsed, now)

    def _serving_model(self, kid: int, outcome: SelectionOutcome):
        """The key's rolled model when its chain started from ``outcome``, else the fit."""
        live = self._live.get(kid)
        return live.model if live is not None and live.source is outcome else outcome.model

    def _grade_alone(self, kid, entry, model, elapsed, now) -> BreachPrediction:
        """Grade one key's remaining forecast alone and memoise the graded band.

        Grading only the still-future part makes advisories evolve
        between refits — a predicted breach draws nearer step by step,
        which is what the alerting layer's escalation keys off.
        """
        forecast = self._entry_forecast(entry, now, model=model)
        advisory = predict_breach(forecast, entry.threshold)
        self._advisory_memo[kid] = _CachedAdvisory(
            model, elapsed, entry.threshold, advisory, forecast.mean.values, forecast.upper.values
        )
        return advisory

    def _grade_cohorts(
        self,
        deferred: list[_CohortJob],
        advisories: dict[WorkloadKey, BreachPrediction],
        now: float,
    ) -> None:
        """Grade deferred keys in one batched kernel call per cohort.

        A cohort is every deferred key sharing (model family, spec, base
        horizon, elapsed offset, window frequency): one ``(batch,
        horizon)`` forecast block, clipped, sliced to the still-future
        part and graded in one array pass through
        :func:`predict_breach_arrays` — bit-identical to the scalar
        path. Smoothing cohorts go through the ETS kernel, day-profile
        cohorts through the centroid-gather kernel and ARIMA/SARIMA
        cohorts through the batched difference-equation kernel. If the
        batched forecast fails, the cohort's rows are graded one by one
        so a sick key cannot silence its peers.
        """
        # Looked up per call: module-level names, so a wrapper installed
        # on this module sees every cohort forecast.
        forecasters = {
            "ets": forecast_cohort_arrays,
            "dayprofile": dayprofile_forecast_cohort_arrays,
            "arima": arima_forecast_cohort_arrays,
        }
        groups: dict[tuple, list[_CohortJob]] = {}
        for job in deferred:
            cohort = (_cohort_family(job.model), job.base_horizon, job.elapsed)
            groups.setdefault((*cohort, job.model.train.frequency), []).append(job)
        for ((family, __), base_horizon, elapsed, frequency), jobs in groups.items():
            batched = forecasters[family]
            try:
                mean, lower, upper = batched(
                    [job.model for job in jobs], base_horizon + elapsed
                )
            except Exception:
                for job in jobs:
                    advisories[job.wkey] = self._grade_alone(
                        job.kid, job.entry, job.model, elapsed, now
                    )
                    self.trace.count("stream_advisories_graded")
                continue
            self.trace.count("stream_cohorts_dispatched")
            self.trace.count("stream_cohort_rows", len(jobs))
            mean = np.maximum(mean, 0.0)
            lower = np.maximum(lower, 0.0)
            upper = np.maximum(upper, 0.0)
            if elapsed > 0:
                mean = mean[:, elapsed:]
                lower = lower[:, elapsed:]
                upper = upper[:, elapsed:]
            sec = frequency.seconds
            graded = predict_breach_arrays(
                mean,
                lower,
                upper,
                [job.model.train.end + sec + elapsed * sec for job in jobs],
                float(sec),
                [job.entry.threshold for job in jobs],
            )
            for i, (job, advisory) in enumerate(zip(jobs, graded)):
                self._advisory_memo[job.kid] = _CachedAdvisory(
                    job.model, elapsed, job.entry.threshold, advisory, mean[i], upper[i]
                )
                advisories[job.wkey] = advisory
            self.trace.count("stream_advisories_graded", len(jobs))

    def _grade_degraded(
        self, kid: int, threshold: float, now: float
    ) -> BreachPrediction | None:
        """Grade a key whose selection is unavailable, via the fallback ladder."""
        cached = self._fallback.get(kid)
        if cached is not None:
            try:
                forecast = self._entry_forecast(cached, now)
                advisory = (
                    None if forecast is None else predict_breach(forecast, cached.threshold)
                )
            except Exception:
                advisory = None  # sick cached model: fall through a rung
            if advisory is not None:
                self.trace.fault("degraded_cached_model")
                return replace(advisory, degraded="cached-model")
        base_horizon = (
            self.horizon
            if self.horizon is not None
            else self.window_frequency.split_rule.horizon
        )
        if base_horizon <= 0:
            return None
        try:
            series = self._history_series(kid)
        except DataError:
            return None
        period = self.window_frequency.default_period
        if self.dayprofile and len(series) >= 3 * period:
            # Optional middle rung: a day-profile fit on the key's own
            # streamed history — shape-aware where seasonal-naive merely
            # echoes last cycle, still orders of magnitude cheaper than
            # a grid selection.
            try:
                forecast = (
                    DayProfile(period=period).fit(series).forecast(base_horizon).clipped(0.0)
                )
            except Exception:
                pass  # too few complete days / degenerate shapes: next rung
            else:
                self.trace.fault("degraded_day_profile")
                advisory = predict_breach(forecast, threshold)
                return replace(advisory, degraded="day-profile")
        model = SeasonalNaive(period) if len(series) > period else Naive()
        try:
            forecast = model.fit(series).forecast(base_horizon).clipped(0.0)
        except Exception:
            return None  # even the floor model failed; nothing to grade
        self.trace.fault("degraded_seasonal_naive")
        advisory = predict_breach(forecast, threshold)
        return replace(advisory, degraded="seasonal-naive")

    def _grading_window(self, model, now: float) -> tuple[int | None, int]:
        """(base horizon, elapsed windows past the model's forecast origin).

        ``(None, 0)`` when grading is disabled. ``elapsed`` is capped at
        one week of windows: weekly expiry guarantees a refit within
        max_age, so any further slide cannot happen on a healthy stream;
        the cap keeps per-tick forecast length (and the exog
        future-matrix allocation) bounded even if grading outlives a
        model that somehow never refits.
        """
        base_horizon = (
            self.horizon
            if self.horizon is not None
            else self.window_frequency.split_rule.horizon
        )
        if base_horizon <= 0:
            return None, 0
        train = model.train
        step = float(train.frequency.seconds)
        elapsed = 0
        if math.isfinite(now) and now > train.end:
            elapsed = int(math.floor((now - train.end) / step))
            elapsed = min(elapsed, int(math.ceil(WEEK_SECONDS / step)))
        return base_horizon, elapsed

    def _entry_forecast(self, entry, now: float, model=None) -> Forecast | None:
        """The *remaining* forecast a live model serves right now.

        The model forecasts from its training end; as the stream
        advances, the leading steps of that horizon slip into the past.
        Only the still-future part is returned, clipped at zero — the
        exact distribution the alert path grades and the provisioning
        planner scores. With a rolled ``model`` the origin already sits
        at the stream head and ``elapsed`` is simply zero.
        """
        if model is None:
            model = entry.outcome.model
        base_horizon, elapsed = self._grading_window(model, now)
        if base_horizon is None:
            return None
        forecast = entry.outcome.forecast(base_horizon + elapsed, model=model).clipped(0.0)
        if elapsed > 0:
            forecast = Forecast(
                mean=forecast.mean[elapsed:],
                lower=forecast.lower[elapsed:],
                upper=forecast.upper[elapsed:],
                alpha=forecast.alpha,
                model_label=forecast.model_label,
            )
        return forecast

    # ------------------------------------------------------------------
    # Planning support
    # ------------------------------------------------------------------
    def planning_keys(self) -> list[StreamKey]:
        """Registered keys whose metric has a threshold, sorted."""
        key_of = self.key_table.key_of
        return sorted(
            key
            for key in (key_of(kid) for kid in self._registered)
            if key[1] in self.thresholds
        )

    def planning_view(self, instance: str, metric: str) -> tuple[ForecastBand, float] | None:
        """(remaining forecast band, current capacity) for the planner's scorer.

        Returns exactly the band the alert path is grading this tick —
        same model state, same elapsed slice, same clipping — so a plan
        scored from it agrees with the advisory that triggered it. A
        key graded under the advisory memo's rule (same model object,
        elapsed offset and threshold) is served the memo's band, with no
        forecast; otherwise (a degraded key, a call between ticks) the
        band is forecast afresh. Falls back to the degradation ladder's
        cached model when selection is unavailable; ``None`` when the key
        has no threshold, no model, or grading is disabled.
        """
        kid = self.key_table.id_of(instance, metric)
        threshold = self.thresholds.get(metric)
        if threshold is None or kid is None or kid not in self._registered:
            return None
        entry = None
        try:
            candidate = self.planner.entry(self.workload_key(instance, metric))
        except DataError:
            candidate = None
        if (
            candidate is not None
            and candidate.status is WorkloadStatus.MODELLED
            and candidate.outcome is not None
        ):
            entry = candidate
        else:
            entry = self._fallback.get(kid)
        if entry is None or entry.outcome is None:
            return None
        model = self._serving_model(kid, entry.outcome)
        now = self._now()
        __, elapsed = self._grading_window(model, now)
        memo = self._advisory_memo.get(kid)
        if memo is not None and memo.serves(model, elapsed, threshold):
            # Grading forecasts at the default alpha, ForecastBand's default.
            return ForecastBand(mean=memo.mean, upper=memo.upper), float(threshold)
        try:
            forecast = self._entry_forecast(entry, now, model=model)
        except Exception:
            return None
        if forecast is None:
            return None
        return ForecastBand.from_forecast(forecast), float(threshold)
