"""Re-plan trigger rules: when a standing plan stops being trustworthy.

ARIMA_PLUS's argument (PAPERS.md) is that plan triggers belong where the
forecasts are served — continuously, in the stream — not in an offline
report. Four rules decide when a key's provisioning should be
re-planned:

* **escalated alert** — the :class:`~repro.stream.alerts.AlertManager`
  escalated the key's debounced alert (rising certainty of breach);
* **sustained breach** — the advisory stream has been breaching for
  ``sustained_breach_ticks`` consecutive ticks (a slow simmer that never
  escalates still deserves a plan);
* **drift** — the scheduler's CUSUM drift detector
  (:mod:`repro.stream.drift`) tripped a refit for the key: the world the
  current plan was scored against has moved;
* **plan age / utilisation error** — the plan is older than
  ``max_plan_age_seconds``, or the observed peak has wandered more than
  ``utilisation_error`` away from the peak the plan was sized for.

A per-key cooldown debounces proposal spam. The tracker's state is
picklable and mergeable so the sharded control plane can fan per-shard
trigger state into one estate-wide view.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..selection.staleness import WEEK_SECONDS
from ..service.thresholds import BreachPrediction, BreachSeverity

__all__ = ["TriggerReason", "TriggerPolicy", "TriggerTracker"]


class TriggerReason(enum.Enum):
    """Why a key's provisioning is being re-planned."""

    ESCALATED_ALERT = "escalated-alert"
    SUSTAINED_BREACH = "sustained-breach"
    DRIFT = "drift"
    PLAN_AGE = "plan-age"
    UTILISATION_ERROR = "utilisation-error"


@dataclass(frozen=True)
class TriggerPolicy:
    """Thresholds for the four trigger rules plus the proposal cooldown."""

    sustained_breach_ticks: int = 6
    drift_refits: int = 1
    max_plan_age_seconds: float = WEEK_SECONDS
    utilisation_error: float = 0.25
    cooldown_seconds: float = 6 * 3600.0


@dataclass
class _KeyTriggerState:
    """Mutable trigger bookkeeping for one workload key (picklable)."""

    breach_streak: int = 0
    drift_count: int = 0
    escalated: bool = False
    last_planned_at: float | None = None
    planned_peak: float | None = None
    observed_peak: float | None = None


class TriggerTracker:
    """Accumulates trigger evidence per key and decides when to re-plan."""

    def __init__(self, policy: TriggerPolicy | None = None) -> None:
        self.policy = policy or TriggerPolicy()
        self._states: dict = {}

    # ------------------------------------------------------------------
    # Evidence intake
    # ------------------------------------------------------------------
    def _state(self, key) -> _KeyTriggerState:
        return self._states.setdefault(key, _KeyTriggerState())

    def observe_advisory(self, key, advisory: BreachPrediction) -> None:
        state = self._state(key)
        if advisory.severity is BreachSeverity.NONE:
            state.breach_streak = 0
        else:
            state.breach_streak += 1

    def observe_escalation(self, key) -> None:
        self._state(key).escalated = True

    def observe_drift(self, key) -> None:
        self._state(key).drift_count += 1

    def observe_utilisation(self, key, observed: float) -> None:
        state = self._state(key)
        if state.observed_peak is None or observed > state.observed_peak:
            state.observed_peak = float(observed)

    def note_planned(self, key, at: float, planned_peak: float | None = None) -> None:
        """A plan was just proposed for this key: reset its evidence."""
        state = self._state(key)
        state.escalated = False
        state.drift_count = 0
        state.breach_streak = 0
        state.observed_peak = None
        state.last_planned_at = float(at)
        if planned_peak is not None:
            state.planned_peak = float(planned_peak)

    def evict(self, key) -> None:
        """Drop a key's trigger state (shard rebalance migration)."""
        self._states.pop(key, None)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def firing(self, key, at: float) -> tuple[TriggerReason, ...]:
        """The reasons this key should be re-planned right now, if any.

        Empty during the post-proposal cooldown; otherwise the fixed-order
        tuple of every rule currently tripped.
        """
        state = self._states.get(key)
        if state is None:
            return ()
        if (
            state.last_planned_at is not None
            and at - state.last_planned_at < self.policy.cooldown_seconds
        ):
            return ()
        reasons = []
        if state.escalated:
            reasons.append(TriggerReason.ESCALATED_ALERT)
        if state.breach_streak >= self.policy.sustained_breach_ticks:
            reasons.append(TriggerReason.SUSTAINED_BREACH)
        if state.drift_count >= self.policy.drift_refits:
            reasons.append(TriggerReason.DRIFT)
        if (
            state.last_planned_at is not None
            and at - state.last_planned_at > self.policy.max_plan_age_seconds
        ):
            reasons.append(TriggerReason.PLAN_AGE)
        if (
            state.planned_peak is not None
            and state.planned_peak > 0
            and state.observed_peak is not None
            and abs(state.observed_peak - state.planned_peak) / state.planned_peak
            > self.policy.utilisation_error
        ):
            reasons.append(TriggerReason.UTILISATION_ERROR)
        return tuple(reasons)

    def fired(self, at: float) -> dict:
        """Every key currently firing, in sorted key order."""
        out = {}
        for key in sorted(self._states):
            reasons = self.firing(key, at)
            if reasons:
                out[key] = reasons
        return out

    # ------------------------------------------------------------------
    # Shard fan-in
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Picklable snapshot of every key's trigger evidence."""
        return {
            key: {
                "breach_streak": s.breach_streak,
                "drift_count": s.drift_count,
                "escalated": s.escalated,
                "last_planned_at": s.last_planned_at,
                "planned_peak": s.planned_peak,
                "observed_peak": s.observed_peak,
            }
            for key, s in self._states.items()
        }

    def adopt_state(self, exported: Mapping) -> None:
        """Install exported key states (union; shards own disjoint keys)."""
        for key, payload in exported.items():
            self._states[key] = _KeyTriggerState(**payload)

    @classmethod
    def merged(
        cls, exports: Iterable[Mapping], policy: TriggerPolicy | None = None
    ) -> "TriggerTracker":
        """One estate-wide tracker from per-shard exports.

        Shards partition the key space disjointly, so merging is a union;
        the result lets an estate-level plan see every shard's trigger
        evidence at once (the :class:`~repro.shard.runtime.ShardedRuntime`
        contract).
        """
        tracker = cls(policy=policy)
        for exported in exports:
            tracker.adopt_state(exported)
        return tracker
