"""The live loop: agent polls → bus → windows → scheduler → alerts.

This module glues the streaming pieces into the deployment shape the
paper's Section 5 architecture implies but never spells out: monitoring
agents push raw polls continuously, hourly aggregates materialise as
watermarks advance, stored models are observed/expired/re-selected on the
fly, and threshold advisories feed a debounced alert channel.

:class:`StreamRuntime` runs that loop over *simulated* traffic — a
:class:`~repro.workloads.cluster.ClusterRun` polled by a
:class:`~repro.agent.agent.MonitoringAgent` — with a deterministic
delivery model layered on top: bounded reordering plus duplicate
injection, seeded, so every run (and every test) replays identically.
Time is a :class:`~repro.stream.clock.ManualClock` advanced to each
batch's newest event timestamp; nothing sleeps, simulated weeks replay in
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..agent.agent import AgentSample
from ..core.frequency import Frequency
from ..core.timeseries import TimeSeries
from ..engine.executor import Executor
from ..engine.telemetry import RunTrace
from ..exceptions import DataError
from ..service.estate import EstatePlanner
from .aggregate import WindowAggregator
from .alerts import AlertEvent, AlertManager, AlertSink
from .clock import ManualClock
from .ingest import IngestBus
from .scheduler import ForecastScheduler, SchedulerTick

__all__ = ["StreamConfig", "StreamRuntime", "mangle_delivery", "stream_summary_lines"]


def mangle_delivery(
    samples: list[AgentSample],
    rng: np.random.Generator,
    jitter_seconds: float,
    duplicate_rate: float,
) -> list[AgentSample]:
    """Deterministically mangle a poll stream the way networks do.

    Each sample arrives at ``event time + U(0, jitter_seconds)`` —
    bounded reordering — and ``duplicate_rate`` of samples are delivered
    twice (the second copy a little later), modelling agent retries. The
    draw order is fixed (one jitter draw plus one duplicate draw per
    sample), so a given RNG state always produces the same arrival
    order. Shared between :class:`StreamRuntime` and the sharded
    control plane (:mod:`repro.shard`), which applies the delivery model
    *once* at the router — before partitioning — so N shards replay the
    exact arrival order one process would have seen.
    """
    if not samples:
        return []
    arrivals: list[tuple[float, int, AgentSample]] = []
    for i, sample in enumerate(samples):
        delay = float(rng.uniform(0.0, jitter_seconds))
        arrivals.append((float(sample.timestamp) + delay, i, sample))
        if rng.random() < duplicate_rate:
            redelay = float(rng.uniform(0.0, 2.0 * jitter_seconds))
            arrivals.append((float(sample.timestamp) + delay + redelay, i, sample))
    arrivals.sort(key=lambda item: (item[0], item[1]))
    return [sample for _, _, sample in arrivals]


def stream_summary_lines(
    bus: dict[str, int],
    agg: dict[str, int],
    sched: dict[str, int],
    alerts: dict[str, int],
    active_alerts: int,
    faults: dict[str, int] | None = None,
) -> list[str]:
    """The CLI's live-telemetry block, from raw counter dicts.

    Shared by :meth:`StreamRuntime.summary_lines` and the sharded
    runtime's merged fan-in, so ``--shards N`` renders the same four
    lines (plus the optional faults line) from summed shard counters.
    """
    lines = [
        "ingest: {} accepted ({} duplicate, {} late-dropped, {} out-of-order, "
        "{} backpressure)".format(
            bus.get("samples_accepted", 0),
            bus.get("samples_duplicate", 0),
            bus.get("samples_late_dropped", 0),
            bus.get("samples_out_of_order", 0),
            bus.get("samples_rejected_backpressure", 0),
        ),
        "windows: {} closed ({} empty, {} partial) from {} samples".format(
            agg.get("windows_closed", 0),
            agg.get("windows_empty", 0),
            agg.get("windows_partial", 0),
            agg.get("samples_aggregated", 0),
        ),
        "models: {} selection runs — {} cache hits, {} misses, {} refits, "
        "{} initial, {} rolls".format(
            sched.get("stream_selection_runs", 0),
            sched.get("selection_cache_hits", 0),
            sched.get("selection_cache_misses", 0),
            sched.get("stream_refits_triggered", 0),
            sched.get("stream_initial_selections", 0),
            sched.get("stream_rolls_applied", 0),
        ),
        "alerts: {} raised, {} escalated, {} recovered ({} active)".format(
            alerts.get("alerts_raised", 0),
            alerts.get("alerts_escalated", 0),
            alerts.get("alerts_recovered", 0),
            active_alerts,
        ),
    ]
    if any(
        key in sched
        for key in ("plan_proposals_emitted", "plan_triggers_fired", "plan_blueprints_scored")
    ):
        lines.append(
            "plans: {} proposals ({} triggers fired, {} blueprints scored)".format(
                sched.get("plan_proposals_emitted", 0),
                sched.get("plan_triggers_fired", 0),
                sched.get("plan_blueprints_scored", 0),
            )
        )
    if faults:
        detail = " ".join(f"{k}={v}" for k, v in sorted(faults.items()))
        lines.append(f"faults: {detail}")
    return lines


@dataclass(frozen=True)
class StreamConfig:
    """Knobs for a streaming run.

    Parameters
    ----------
    thresholds:
        Capacity limits per metric name; metrics without one are
        modelled but never alerted on.
    allowed_lateness:
        Bus lateness budget in seconds (default: two polling intervals).
    capacity:
        Bus buffer bound (samples) before backpressure rejections.
    batch_polls:
        Samples delivered per tick of the loop — the replay's network
        packet size.
    jitter_seconds:
        Delivery reordering bound: each sample's arrival position is its
        event time plus ``U(0, jitter_seconds)``, so samples arrive out
        of order but never further displaced than the jitter budget.
        Keep below ``allowed_lateness`` or reordered samples will be
        dropped as late (which is itself a useful failure drill).
    duplicate_rate:
        Fraction of samples re-delivered a second time (agent retries).
    seed:
        Seed for the delivery model's RNG.
    raise_after / recover_after:
        Alert debounce knobs (see :class:`~repro.stream.alerts.AlertManager`).
    min_observations / horizon / history_cap:
        Scheduler knobs (see :class:`~repro.stream.scheduler.ForecastScheduler`).
    dayprofile:
        Enable the day-profile rung of the scheduler's degradation
        ladder (see :class:`~repro.stream.scheduler.ForecastScheduler`).
        Racing day-profile candidates in *selection* is governed by the
        planner's :class:`~repro.selection.auto.AutoConfig`, not here.
    planning:
        Enable the alert→plan escalation loop: a
        :class:`~repro.planner.escalation.PlanEscalator` rides every
        tick, and keys whose triggers fire emit
        :class:`~repro.planner.escalation.PlanProposal` events through
        the alert sink. Off by default — planning is observation-only
        (advisories and alerts are byte-identical either way), but sinks
        see extra proposal events when it is on.
    plan_sustained_ticks / plan_cooldown_seconds / plan_max_replicas:
        Planner knobs (see :class:`~repro.planner.triggers.TriggerPolicy`
        and :func:`~repro.planner.blueprint.enumerate_blueprints`).
    """

    thresholds: dict[str, float] = field(default_factory=dict)
    allowed_lateness: float = 1800.0
    capacity: int = 1_000_000
    batch_polls: int = 64
    jitter_seconds: float = 1200.0
    duplicate_rate: float = 0.02
    seed: int = 17
    raise_after: int = 2
    recover_after: int = 4
    min_observations: int | None = None
    horizon: int | None = None
    history_cap: int | None = None
    dayprofile: bool = False
    planning: bool = False
    plan_sustained_ticks: int = 6
    plan_cooldown_seconds: float = 21600.0
    plan_max_replicas: int = 3


class StreamRuntime:
    """Owns one streaming deployment end to end.

    Parameters
    ----------
    planner:
        The estate planner (and thus the selection cache) models live in;
        a fresh default planner when omitted.
    config:
        The :class:`StreamConfig` delivery/alerting knobs.
    executor:
        Engine executor re-selections fan out on.
    sink:
        Alert sink; default records to a list (``runtime.alerts.sink``).
    clock:
        Injected clock; a :class:`ManualClock` at 0 when omitted.
    injector:
        Optional :class:`~repro.faults.plan.FaultInjector` shared by the
        runtime's layers: it drives the bus's ``ingest.deliver`` hook and
        its counters are folded into :meth:`telemetry`. Hand the same
        injector to the agent, repository and executor to chaos-test the
        whole deployment under one plan (that is what
        :mod:`repro.faults.scenarios` does).
    repository:
        Optional :class:`~repro.agent.repository.MetricsRepository` the
        scheduler persists closed windows and selected models into,
        batched one transaction per flush (see
        :class:`~repro.stream.scheduler.ForecastScheduler`).
    """

    def __init__(
        self,
        planner: EstatePlanner | None = None,
        config: StreamConfig | None = None,
        executor: Executor | None = None,
        sink: AlertSink | None = None,
        clock: ManualClock | None = None,
        injector=None,
        repository=None,
    ) -> None:
        self.config = config or StreamConfig()
        self.clock = clock if clock is not None else ManualClock()
        self.planner = planner if planner is not None else EstatePlanner()
        self.injector = injector
        self._executor = executor
        self.bus = IngestBus(
            raw_frequency=Frequency.MINUTE_15,
            allowed_lateness=self.config.allowed_lateness,
            capacity=self.config.capacity,
            injector=injector,
        )
        self.aggregator = WindowAggregator(self.bus, Frequency.HOURLY)
        self.trace = RunTrace()
        self.scheduler = ForecastScheduler(
            self.planner,
            thresholds=self.config.thresholds,
            executor=executor,
            clock=self.clock,
            horizon=self.config.horizon,
            min_observations=self.config.min_observations,
            history_cap=self.config.history_cap,
            trace=self.trace,
            repository=repository,
            key_table=self.bus.key_table,
            dayprofile=self.config.dayprofile,
        )
        self.alerts = AlertManager(
            sink=sink,
            raise_after=self.config.raise_after,
            recover_after=self.config.recover_after,
            clock=self.clock,
        )
        self.events: list[AlertEvent] = []
        self.proposals: list = []
        self.escalator = None
        if self.config.planning:
            # Leaf-layer import: repro.planner imports from repro.stream,
            # so the reverse edge must stay out of module import time.
            from ..planner.escalation import PlanEscalator
            from ..planner.triggers import TriggerPolicy

            self.escalator = PlanEscalator(
                sink=self.alerts.sink,
                policy=TriggerPolicy(
                    sustained_breach_ticks=self.config.plan_sustained_ticks,
                    cooldown_seconds=self.config.plan_cooldown_seconds,
                ),
                max_replicas=self.config.plan_max_replicas,
                trace=self.trace,
            )
        self.ticks = 0
        # One RNG for the runtime's lifetime: chunked run() calls draw
        # fresh (still seed-deterministic) jitter instead of replaying
        # the same delivery pattern every chunk.
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------
    # Delivery model
    # ------------------------------------------------------------------
    def delivery_order(self, samples: list[AgentSample]) -> list[AgentSample]:
        """Deterministically mangle a poll stream the way networks do.

        Each sample arrives at ``event time + U(0, jitter_seconds)`` —
        bounded reordering — and ``duplicate_rate`` of samples are
        delivered twice (the second copy a little later), modelling agent
        retries. Draws from the runtime's seeded RNG, so a full replay on
        a fresh runtime is deterministic while successive calls on the
        same runtime (chunked feeds) see independent delivery noise.
        """
        return mangle_delivery(
            samples, self._rng, self.config.jitter_seconds, self.config.duplicate_rate
        )

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def _tick(self, windows) -> SchedulerTick:
        tick = self.scheduler.on_windows(windows)
        now = self.clock.now()
        before = len(self.events)
        for key in sorted(tick.advisories):
            event = self.alerts.observe(key, tick.advisories[key], at=now)
            if event is not None:
                self.events.append(event)
        if self.escalator is not None:
            self.proposals.extend(
                self.escalator.on_tick(
                    self.scheduler, tick, self.events[before:], windows, now
                )
            )
        self.ticks += 1
        return tick

    def ingest_batch(
        self, chunk: list[AgentSample], clock_target: float | None = None
    ) -> SchedulerTick:
        """One loop iteration on an *already delivery-ordered* chunk.

        Pushes the chunk onto the bus, advances the clock (to the chunk's
        newest event timestamp, or an explicit ``clock_target`` — the
        sharded control plane passes the *global* chunk maximum so every
        shard's clock agrees), closes whatever windows the watermarks
        allow and ticks the scheduler. An empty chunk still ticks: under
        sharding every shard must tick every global chunk so alert
        debounce streaks count ticks identically to one process.
        """
        if chunk:
            self.bus.push_chunk(chunk)
            if clock_target is None:
                clock_target = max(s.timestamp for s in chunk)
        if clock_target is not None:
            self.clock.advance_to(clock_target)
        return self._tick(self.aggregator.advance())

    def run(self, samples: list[AgentSample]) -> list[SchedulerTick]:
        """Replay a poll stream through the whole loop, batch by batch.

        Applies the delivery model, pushes ``batch_polls``-sized batches
        onto the bus, advances the clock to each batch's newest arrival,
        closes whatever windows the watermarks allow and hands them to
        the scheduler; advisories feed the alert manager. Returns one
        :class:`SchedulerTick` per batch.
        """
        if not samples:
            raise DataError("no samples to stream")
        stream = self.delivery_order(samples)
        batch = max(1, int(self.config.batch_polls))
        ticks: list[SchedulerTick] = []
        for lo in range(0, len(stream), batch):
            ticks.append(self.ingest_batch(stream[lo : lo + batch]))
        return ticks

    def finish(self) -> SchedulerTick:
        """End of stream: flush the trailing windows and tick once more."""
        return self._tick(self.aggregator.flush())

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def seed_from_repository(
        self,
        repository,
        instance: str,
        metric: str,
        start: float | None = None,
        end: float | None = None,
    ) -> None:
        """Warm-start a key's history from stored hourly aggregates.

        A restarted stream does not replay weeks of raw polls — it reads
        the hourly series straight from the
        :class:`~repro.agent.repository.MetricsRepository` (optionally
        time-bounded) and resumes from there.
        """
        series = repository.load_series(
            instance, metric, frequency=Frequency.HOURLY, start=start, end=end
        )
        self.scheduler.seed_history(instance, metric, series)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan_inputs(self) -> dict:
        """Picklable planning inputs: per-key forecast bands + trigger state.

        The sharded control plane broadcasts this to assemble one
        estate-wide plan: each shard contributes the remaining forecast
        (exactly what its alert path grades) and current capacity for
        every thresholded key it owns, plus its
        :class:`~repro.planner.triggers.TriggerTracker` export. Works
        with planning disabled too (empty trigger state) — a one-shot
        estate plan does not require the escalation loop.
        """
        keys = []
        for instance, metric in self.scheduler.planning_keys():
            view = self.scheduler.planning_view(instance, metric)
            if view is None:
                continue
            band, threshold = view
            keys.append(
                {
                    "instance": instance,
                    "metric": metric,
                    "threshold": float(threshold),
                    "band": band.payload(),
                }
            )
        triggers = (
            self.escalator.tracker.export_state() if self.escalator is not None else {}
        )
        return {"keys": keys, "triggers": triggers}

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def telemetry(self) -> RunTrace:
        """One merged trace: bus + windows + scheduler + alert counters.

        Fault-plane activity rides along in the trace's ``faults`` block:
        injected-fault counts from the runtime's injector and resilience
        counters from the executor (task retries, rebuilt pools).
        """
        trace = RunTrace()
        trace.merge(self.trace)
        for counters in (self.bus.counters, self.aggregator.counters, self.alerts.counters):
            for name, value in counters.items():
                trace.count(name, value)
        trace.count("stream_ticks", self.ticks)
        if self.injector is not None:
            trace.absorb_faults(self.injector.counters)
        if self._executor is not None:
            trace.absorb_faults(getattr(self._executor, "fault_counters", None))
        return trace

    def summary_lines(self) -> list[str]:
        """The CLI's live-telemetry block."""
        return stream_summary_lines(
            self.bus.counters,
            self.aggregator.counters,
            self.trace.counters,
            self.alerts.counters,
            len(self.alerts.active_alerts()),
            self.telemetry().faults,
        )

    # ------------------------------------------------------------------
    # Shard rebalance migration
    # ------------------------------------------------------------------
    def export_key(self, instance: str, metric: str) -> dict | None:
        """Package one key's migratable streaming state, picklable.

        Three layers travel together — the bus's still-open raw buffer,
        the aggregator's grid anchor / closed-window count, and the
        scheduler's hourly history — because each alone is useless: a
        history without the window state breaks hourly continuity on the
        next close, and a buffer without its frontier re-admits already
        finalised hours. Models, fallbacks and alert streaks stay behind
        by design (the key re-registers on its new shard with an
        ``initial`` re-selection, which hits the selection cache when
        the series is unchanged). Returns ``None`` for a key with no
        state here.
        """
        series = self.scheduler.export_history(instance, metric)
        buffer = self.bus.export_buffer(instance, metric)
        windows = self.aggregator.export_state(instance, metric)
        if series is None and buffer is None and windows is None:
            return None
        history = None
        if series is not None:
            history = (float(series.start), [float(v) for v in series.values])
        return {"history": history, "buffer": buffer, "windows": windows}

    def adopt_key(self, instance: str, metric: str, state: dict) -> None:
        """Install a migrated key's state (the receiving half of export)."""
        if state.get("buffer") is not None:
            self.bus.adopt_buffer(instance, metric, state["buffer"])
        if state.get("windows") is not None:
            self.aggregator.adopt_state(instance, metric, state["windows"])
        history = state.get("history")
        if history is not None:
            start, values = history
            self.scheduler.seed_history(
                instance,
                metric,
                TimeSeries(
                    values=np.asarray(values, dtype=float),
                    frequency=self.scheduler.window_frequency,
                    start=start,
                    name=f"{instance}.{metric}",
                ),
            )

    def evict_key(self, instance: str, metric: str) -> None:
        """Forget one (instance, metric) key across every layer.

        Bus buffer, aggregator state, scheduler history/models and alert
        debounce state all go; the key's samples re-enter wherever the
        shard router sends them next, starting clean.
        """
        self.aggregator.evict(instance, metric)  # evicts the bus buffer too
        self.scheduler.evict_key(instance, metric)
        self.alerts.evict(self.scheduler.workload_key(instance, metric))
        if self.escalator is not None:
            self.escalator.tracker.evict(self.scheduler.workload_key(instance, metric))
