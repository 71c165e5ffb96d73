"""Forecast-driven provisioning planner.

The paper's end goal — "what resource capacity do I need in the next 6
months to a year?" — answered as a subsystem: enumerate candidate
provisioning blueprints (:mod:`~repro.planner.blueprint`), score them
against the forecast distributions the models already produce
(:mod:`~repro.planner.scoring`), search the estate-level joint space
with a deterministic beam (:mod:`~repro.planner.beam`), and decide
*when* to re-plan from streaming trigger evidence
(:mod:`~repro.planner.triggers`). :mod:`~repro.planner.escalation`
closes the loop inside the stream: sustained or escalated breaches
become :class:`PlanProposal` events on the alert channel.
"""

from .beam import EstatePlan, PlanChoice, plan_estate
from .blueprint import (
    DEFAULT_CATALOG,
    Blueprint,
    BlueprintKind,
    CatalogTier,
    ResourceShape,
    enumerate_blueprints,
    enumerate_consolidations,
    metric_dimension,
    tier_named,
)
from .escalation import RESOLVED_PROBABILITY, PlanEscalator, PlanProposal
from .reconcile import ReconciledEstate, ReconciledLevel, combine_bands, reconcile
from .scoring import (
    BlueprintScore,
    ForecastBand,
    InstanceDemand,
    RankingJob,
    ScoreWeights,
    demands_from_entries,
    rank_blueprint_block,
    rank_blueprints,
    score_blueprint,
)
from .triggers import TriggerPolicy, TriggerReason, TriggerTracker

__all__ = [
    "ResourceShape",
    "CatalogTier",
    "BlueprintKind",
    "Blueprint",
    "DEFAULT_CATALOG",
    "metric_dimension",
    "tier_named",
    "enumerate_blueprints",
    "enumerate_consolidations",
    "ForecastBand",
    "InstanceDemand",
    "ScoreWeights",
    "BlueprintScore",
    "score_blueprint",
    "rank_blueprints",
    "RankingJob",
    "rank_blueprint_block",
    "demands_from_entries",
    "ReconciledLevel",
    "ReconciledEstate",
    "combine_bands",
    "reconcile",
    "PlanChoice",
    "EstatePlan",
    "plan_estate",
    "TriggerReason",
    "TriggerPolicy",
    "TriggerTracker",
    "PlanProposal",
    "PlanEscalator",
    "RESOLVED_PROBABILITY",
]
