"""Alert → plan escalation: the stream's exit into provisioning decisions.

The :class:`PlanEscalator` closes the loop the paper motivates: the
streaming scheduler already turns forecasts into debounced alerts; this
turns the alerts that *stay* bad into concrete provisioning proposals.
Each tick it feeds the advisory/alert/refit evidence into a
:class:`~repro.planner.triggers.TriggerTracker`; for every key whose
triggers fire it takes the forecast band the alert path graded this tick
(:meth:`ForecastScheduler.planning_view`, which re-serves the graded
band instead of forecasting again) and enumerates candidate blueprints.
All firing keys' candidates are scored together as one ``(ΣC, H)``
block (:func:`~repro.planner.scoring.rank_blueprint_block`), and each
key's best is emitted as a :class:`PlanProposal` through the existing
alert-sink protocol — a proposal is an operator event, it rides the
same channel.

Proposals are deterministic: the evidence is per-key (so shards agree
with a single process), candidates rank with slug-stable tie-breaks, and
emission follows sorted advisory order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..engine.telemetry import RunTrace
from ..selection.staleness import StalenessReason
from ..service.estate import WorkloadKey
from ..stream.alerts import AlertKind
from .blueprint import (
    DEFAULT_CATALOG,
    Blueprint,
    BlueprintKind,
    CatalogTier,
    enumerate_blueprints,
)
from .scoring import (
    BlueprintScore,
    InstanceDemand,
    RankingJob,
    ScoreWeights,
    rank_blueprint_block,
)
from .triggers import TriggerPolicy, TriggerTracker

__all__ = ["PlanProposal", "PlanEscalator", "RESOLVED_PROBABILITY"]

#: A blueprint "eliminates" the forecast breach when its residual breach
#: probability under the planner's own scoring drops below this.
RESOLVED_PROBABILITY = 0.05


@dataclass(frozen=True)
class PlanProposal:
    """One emitted provisioning proposal for a workload key.

    Duck-typed to the alert-sink protocol (it has a ``describe()`` and
    rides ``sink.emit``), so every existing sink — list, console, pager —
    carries plan proposals without modification.
    """

    key: WorkloadKey
    at: float
    reasons: tuple[str, ...]
    blueprint: Blueprint
    score: BlueprintScore
    baseline_probability: float
    current_capacity: float
    forecast_peak: float
    resolves_breach: bool

    @property
    def kind(self) -> str:
        return "plan-proposal"

    def describe(self) -> str:
        verdict = "resolves breach" if self.resolves_breach else "best available"
        return (
            f"[{self.at:.0f}s] PLAN {self.key} {self.blueprint.describe()} "
            f"— p(breach) {self.baseline_probability:.0%} → "
            f"{self.score.breach_probability:.0%} ({verdict}; "
            f"triggers: {', '.join(self.reasons)})"
        )


class PlanEscalator:
    """Per-tick trigger evaluation and proposal emission for one runtime.

    Parameters
    ----------
    sink:
        Where proposals are emitted (the runtime's alert sink).
    policy:
        Trigger thresholds and cooldown.
    catalog / current_tier / max_replicas / weights:
        The blueprint space each proposal is chosen from. The current
        tier is an estate-wide assumption (streams monitor utilisation,
        not procurement); override per deployment as needed.
    trace:
        Telemetry sink for the plan counters.
    """

    def __init__(
        self,
        sink=None,
        policy: TriggerPolicy | None = None,
        catalog: Sequence[CatalogTier] = DEFAULT_CATALOG,
        current_tier: CatalogTier | None = None,
        max_replicas: int = 3,
        weights: ScoreWeights | None = None,
        trace: RunTrace | None = None,
    ) -> None:
        self.sink = sink
        self.tracker = TriggerTracker(policy)
        self.catalog = tuple(catalog)
        self.current_tier = current_tier if current_tier is not None else self.catalog[0]
        self.max_replicas = int(max_replicas)
        self.weights = weights or ScoreWeights()
        self.trace = trace if trace is not None else RunTrace()
        self.proposals: list[PlanProposal] = []

    # ------------------------------------------------------------------
    def on_tick(self, scheduler, tick, events, windows, now: float) -> list[PlanProposal]:
        """Digest one tick's evidence; emit proposals for firing keys.

        ``tick`` is the :class:`~repro.stream.scheduler.SchedulerTick`,
        ``events`` the alert transitions the tick caused, ``windows``
        the closed windows it consumed (observed utilisation).
        """
        for wkey in sorted(tick.advisories):
            self.tracker.observe_advisory(wkey, tick.advisories[wkey])
        for event in events:
            if event.kind is AlertKind.ESCALATED:
                self.tracker.observe_escalation(event.key)
        for refit in tick.refits:
            if refit.reason == StalenessReason.DEGRADED.value:
                self.tracker.observe_drift(refit.key)
        for window in windows:
            self.tracker.observe_utilisation(
                scheduler.workload_key(window.instance, window.metric), window.value
            )

        # Every firing key's band is the one the tick graded; all their
        # candidates are scored in one block, proposals emit in key order.
        jobs: list[RankingJob] = []
        firing = []
        for wkey in sorted(tick.advisories):
            reasons = self.tracker.firing(wkey, now)
            if not reasons:
                continue
            self.trace.count("plan_triggers_fired")
            view = scheduler.planning_view(wkey.workload, wkey.metric)
            if view is None:
                continue
            band, threshold = view
            demand = InstanceDemand(
                instance=wkey.workload,
                tier=self.current_tier,
                bands={wkey.metric: band},
                capacities={wkey.metric: float(threshold)},
            )
            candidates = enumerate_blueprints(
                wkey.workload,
                self.current_tier,
                self.catalog,
                max_replicas=self.max_replicas,
            )
            jobs.append(RankingJob(candidates, [demand]))
            firing.append((wkey, reasons, demand))

        emitted: list[PlanProposal] = []
        rankings = rank_blueprint_block(jobs, self.weights)
        for (wkey, reasons, demand), ranked in zip(firing, rankings):
            self.trace.count("plan_blueprints_scored", len(ranked))
            best, best_score = ranked[0]
            baseline = next(
                score
                for bp, score in ranked
                if bp.kind is BlueprintKind.STAY and bp.replicas == demand.replicas
            )
            band, threshold = demand.bands[wkey.metric], demand.capacities[wkey.metric]
            finite = band.mean[np.isfinite(band.mean)]
            peak = float(finite.max()) if finite.size else threshold
            proposal = PlanProposal(
                key=wkey,
                at=float(now),
                reasons=tuple(r.value for r in reasons),
                blueprint=best,
                score=best_score,
                baseline_probability=float(baseline.breach_probability),
                current_capacity=threshold,
                forecast_peak=peak,
                resolves_breach=bool(best_score.breach_probability < RESOLVED_PROBABILITY),
            )
            self.tracker.note_planned(wkey, now, planned_peak=peak)
            self.trace.count("plan_proposals_emitted")
            if self.sink is not None:
                self.sink.emit(proposal)
            emitted.append(proposal)
        self.proposals.extend(emitted)
        return emitted
