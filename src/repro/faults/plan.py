"""The fault plan: deterministic, seedable failure injection.

The paper's pipeline exists because real monitoring estates fail
constantly — "it is possible that the agent may have been at fault and may
not have executed or polled the value" (Section 5.1) — yet a reproduction
that only ever exercises the happy path proves nothing about the recovery
machinery. This module is the injection side of the fault plane: a
declarative :class:`FaultPlan` (which failures, where, how often) executed
by a :class:`FaultInjector` at named **hook points** threaded through the
runtime layers:

====================  =====================================================
site                  where the hook fires
====================  =====================================================
``agent.poll``        once per (instance, metric) poll attempt of the
                      monitoring agent — transient errors here model an
                      agent that could not execute its command
``agent.sample``      once per sample the agent records — drops,
                      duplicates, corrupt values, NaN bursts, clock skew
``repository.write``  once per repository write transaction — transient
                      ``sqlite3.OperationalError`` under lock contention
``ingest.deliver``    once per sample delivered to the streaming bus —
                      the network between agent and repository
``executor.submit``   once per task submitted to an engine executor —
                      worker crashes, slow calls, transient task errors
====================  =====================================================

Determinism is the contract: every site draws from its own RNG stream
derived from ``(plan.seed, site)``, so the same plan over the same input
produces byte-identical fault sequences — which is what lets the chaos CI
job assert survival reports byte for byte. An **empty plan injects
nothing**: every hook short-circuits before touching a counter or an RNG,
so behaviour with ``FaultPlan()`` is bit-for-bit identical to running with
no injector at all (asserted by the no-op parity tests).
"""

from __future__ import annotations

import dataclasses
import enum
import math
import zlib
from dataclasses import dataclass

import numpy as np

from ..exceptions import DataError

__all__ = [
    "FaultKind",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "KNOWN_SITES",
]

#: Hook points the runtime exposes; rules naming anything else are typos.
KNOWN_SITES = frozenset(
    {
        "agent.poll",
        "agent.sample",
        "repository.write",
        "ingest.deliver",
        "executor.submit",
    }
)


class InjectedFault(RuntimeError):
    """A deliberately injected transient failure.

    Deliberately *not* a :class:`~repro.exceptions.CapacityPlanningError`:
    injected faults simulate infrastructure failures (a dead agent
    command, a locked database), which the resilience policies must catch
    explicitly — they must never be absorbed by the library's ordinary
    data-error handling by accident.
    """


class FaultKind(enum.Enum):
    """What a firing rule does to the event it fires on."""

    #: Sample sites: the sample silently vanishes.
    DROP_SAMPLE = "drop_sample"
    #: Sample sites: the sample is delivered twice (agent retry).
    DUPLICATE_SAMPLE = "duplicate_sample"
    #: Sample sites: the value is scaled by ``param`` (default 1000×) —
    #: a garbage reading from a confused collector.
    CORRUPT_VALUE = "corrupt_value"
    #: Sample sites: this sample and the next ``param - 1`` become NaN.
    NAN_BURST = "nan_burst"
    #: Sample sites: the timestamp shifts by ``param`` seconds.
    CLOCK_SKEW = "clock_skew"
    #: Executor site: the task's result misses its deadline.
    SLOW_CALL = "slow_call"
    #: Executor site: the worker running the task dies.
    WORKER_CRASH = "worker_crash"
    #: Call sites: the call raises a transient, retryable error.
    TRANSIENT_ERROR = "transient_error"


#: Kinds that mutate individual samples (valid at sample sites).
_SAMPLE_KINDS = frozenset(
    {
        FaultKind.DROP_SAMPLE,
        FaultKind.DUPLICATE_SAMPLE,
        FaultKind.CORRUPT_VALUE,
        FaultKind.NAN_BURST,
        FaultKind.CLOCK_SKEW,
    }
)


@dataclass(frozen=True)
class FaultRule:
    """One failure mode at one hook point.

    Parameters
    ----------
    site:
        Hook point name (one of :data:`KNOWN_SITES`).
    kind:
        What happens when the rule fires.
    probability:
        Per-event chance of firing, drawn from the site's seeded RNG.
    every:
        Deterministic schedule: fire on every ``every``-th event at the
        site (counting from ``start``); ``0`` disables the schedule.
        ``every`` and ``probability`` compose — the rule fires when
        either triggers.
    start:
        First event index (0-based) at which the rule is eligible.
    limit:
        Maximum number of firings (``None`` = unlimited).
    param:
        Kind-specific magnitude: skew seconds for ``CLOCK_SKEW``, burst
        length for ``NAN_BURST``, scale factor for ``CORRUPT_VALUE``.
    """

    site: str
    kind: FaultKind
    probability: float = 0.0
    every: int = 0
    start: int = 0
    limit: int | None = None
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise DataError(
                f"unknown fault site {self.site!r}; known sites: {sorted(KNOWN_SITES)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise DataError(f"probability must be in [0, 1], got {self.probability}")
        if self.every < 0:
            raise DataError(f"every must be >= 0, got {self.every}")
        if self.probability == 0.0 and self.every == 0:
            raise DataError("rule can never fire: set probability > 0 or every >= 1")
        if self.start < 0:
            raise DataError(f"start must be >= 0, got {self.start}")
        if self.limit is not None and self.limit < 1:
            raise DataError(f"limit must be >= 1, got {self.limit}")
        if not math.isfinite(self.param):
            raise DataError("param must be finite")


@dataclass(frozen=True)
class FaultPlan:
    """A seedable set of fault rules — the whole chaos experiment.

    An empty plan (the default) is the documented no-op: injectors built
    from it never fire, never draw randomness and never count anything.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise DataError(f"rules must be FaultRule instances, got {type(rule)}")

    @property
    def empty(self) -> bool:
        return not self.rules

    def for_site(self, site: str) -> tuple[tuple[int, FaultRule], ...]:
        """The plan's rules at one site, with stable rule ids."""
        return tuple((i, r) for i, r in enumerate(self.rules) if r.site == site)


def _site_rng(seed: int, site: str) -> np.random.Generator:
    """One RNG stream per (plan seed, site) — sites never share draws."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, zlib.crc32(site.encode())])


class FaultInjector:
    """Executes a :class:`FaultPlan` at the runtime's hook points.

    One injector is shared by every layer of a chaos run (agent, bus,
    repository, executor); each site keeps its own event counter and RNG
    stream so the layers cannot perturb each other's fault sequences.
    ``counters`` accumulates one entry per fault kind injected (plus
    ``faults_injected`` in total) and flows into the
    :class:`~repro.engine.telemetry.RunTrace` ``faults`` block.
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self.counters: dict[str, int] = {}
        self._events: dict[str, int] = {}
        self._fired: dict[int, int] = {}
        self._rngs: dict[str, np.random.Generator] = {}
        self._nan_remaining: dict[str, int] = {}
        self._site_rules = {
            site: self.plan.for_site(site)
            for site in {rule.site for rule in self.plan.rules}
        }

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """False for an empty plan — every hook then short-circuits."""
        return not self.plan.empty

    def _count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _record(self, site: str, kind: FaultKind) -> None:
        self._count("faults_injected")
        self._count(f"fault_{kind.value}")

    def _rng(self, site: str) -> np.random.Generator:
        rng = self._rngs.get(site)
        if rng is None:
            rng = self._rngs[site] = _site_rng(self.plan.seed, site)
        return rng

    def _fire(self, site: str) -> list[FaultRule]:
        """Advance the site's event counter; return the rules that fire.

        Every probabilistic rule draws exactly once per event regardless
        of whether its deterministic schedule already hit, so the RNG
        stream consumption — and therefore every later draw — depends
        only on the event count, never on earlier outcomes.
        """
        rules = self._site_rules.get(site)
        if not rules:
            return []
        idx = self._events.get(site, 0)
        self._events[site] = idx + 1
        fired: list[FaultRule] = []
        for rid, rule in rules:
            draw = self._rng(site).random() if rule.probability > 0.0 else 1.0
            if idx < rule.start:
                continue
            if rule.limit is not None and self._fired.get(rid, 0) >= rule.limit:
                continue
            hit = bool(rule.every) and (idx - rule.start) % rule.every == 0
            if not hit:
                hit = draw < rule.probability
            if hit:
                self._fired[rid] = self._fired.get(rid, 0) + 1
                fired.append(rule)
        return fired

    # ------------------------------------------------------------------
    # Hook-point API
    # ------------------------------------------------------------------
    def on_sample(self, site: str, sample):
        """Mangle one :class:`~repro.agent.agent.AgentSample` in flight.

        Returns the delivered samples: ``[]`` for a drop, two copies for
        a duplicate, otherwise one (possibly skewed/corrupted) sample.
        """
        if site not in self._site_rules:
            return [sample]
        copies, timestamp, value, mutated = self._deliver(
            site, float(sample.timestamp), float(sample.value)
        )
        if mutated:
            sample = dataclasses.replace(sample, value=value, timestamp=timestamp)
        return [sample] * copies

    def on_columns(self, site: str, instances, metrics, timestamps, values):
        """Columnar :meth:`on_sample`: mangle a delivery-ordered batch.

        The four columns describe one batch, row ``i`` being one sample.
        Rows pass the same rule code as :meth:`on_sample`, one event per
        row in delivery order, so the fault sequence and every counter
        match a per-sample loop over the same rows, NaN bursts included
        (they carry across rows and batches). Returns the delivered
        columns ``(instances, metrics, timestamps, values)``; the input
        comes back untouched when the plan has no rule at ``site``.
        """
        if site not in self._site_rules:
            return instances, metrics, timestamps, values
        out_instances: list = []
        out_metrics: list = []
        out_timestamps: list[float] = []
        out_values: list[float] = []
        rows = zip(
            instances,
            metrics,
            np.asarray(timestamps, dtype=np.float64).tolist(),
            np.asarray(values, dtype=np.float64).tolist(),
        )
        for instance, metric, timestamp, value in rows:
            copies, timestamp, value, __ = self._deliver(site, timestamp, value)
            for __ in range(copies):
                out_instances.append(instance)
                out_metrics.append(metric)
                out_timestamps.append(timestamp)
                out_values.append(value)
        return (
            out_instances,
            out_metrics,
            np.array(out_timestamps, dtype=np.float64),
            np.array(out_values, dtype=np.float64),
        )

    def _deliver(self, site: str, timestamp: float, value: float):
        """One sample event: ``(copies, timestamp, value, mutated)``.

        ``copies`` is 0 for a drop, 2 for a duplicate and 1 otherwise.
        """
        mutated = False
        burst = self._nan_remaining.get(site, 0)
        if burst > 0:
            self._nan_remaining[site] = burst - 1
            value = float("nan")
            mutated = True
            self._count("fault_nan_burst_samples")
        drop = False
        duplicate = False
        for rule in self._fire(site):
            if rule.kind not in _SAMPLE_KINDS:
                continue
            self._record(site, rule.kind)
            if rule.kind is FaultKind.DROP_SAMPLE:
                drop = True
            elif rule.kind is FaultKind.DUPLICATE_SAMPLE:
                duplicate = True
            elif rule.kind is FaultKind.CORRUPT_VALUE:
                value *= rule.param if rule.param else 1000.0
                mutated = True
            elif rule.kind is FaultKind.NAN_BURST:
                self._nan_remaining[site] = max(int(rule.param), 1) - 1
                value = float("nan")
                mutated = True
                self._count("fault_nan_burst_samples")
            elif rule.kind is FaultKind.CLOCK_SKEW:
                timestamp += rule.param
                mutated = True
        copies = 0 if drop else 2 if duplicate else 1
        return copies, timestamp, value, mutated

    def check_call(self, site: str, make_error=None) -> None:
        """Fire call-level rules at ``site``; raise on a transient error.

        ``make_error`` builds the exception realistic for the layer (the
        repository raises ``sqlite3.OperationalError``, the agent a
        :class:`InjectedFault`); ``None`` defaults to
        :class:`InjectedFault`.
        """
        if not self.active:
            return
        for rule in self._fire(site):
            if rule.kind is FaultKind.TRANSIENT_ERROR:
                self._record(site, rule.kind)
                exc = make_error() if make_error is not None else None
                raise exc if exc is not None else InjectedFault(
                    f"injected transient error at {site}"
                )

    def task_outcome(self, site: str = "executor.submit") -> str | None:
        """Executor hook: the injected fate of the next submitted task.

        Returns ``"crash"`` (worker died), ``"slow"`` (deadline missed),
        ``"error"`` (transient task failure) or ``None`` (run normally).
        """
        if not self.active:
            return None
        outcome = None
        for rule in self._fire(site):
            if rule.kind is FaultKind.WORKER_CRASH:
                self._record(site, rule.kind)
                outcome = outcome or "crash"
            elif rule.kind is FaultKind.SLOW_CALL:
                self._record(site, rule.kind)
                outcome = outcome or "slow"
            elif rule.kind is FaultKind.TRANSIENT_ERROR:
                self._record(site, rule.kind)
                outcome = outcome or "error"
        return outcome
