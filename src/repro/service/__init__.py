"""Service layer: the capacity-planning facade and advisory functions."""

from .estate import (
    EstateEntry,
    EstatePlanner,
    EstateReport,
    WorkloadKey,
    WorkloadStatus,
)
from .planner import CapacityPlanner, PlannerEntry
from .selection_cache import SelectionCache
from .sizing import (
    CapacityRecommendation,
    ShapeRecommendation,
    overprovision_ratio,
    recommend_capacity,
    recommend_shape,
)
from .thresholds import (
    BreachPrediction,
    BreachSeverity,
    breach_probability_arrays,
    breach_probability_block,
    predict_breach,
)

__all__ = [
    "CapacityPlanner",
    "PlannerEntry",
    "SelectionCache",
    "EstatePlanner",
    "EstateReport",
    "EstateEntry",
    "WorkloadKey",
    "WorkloadStatus",
    "BreachPrediction",
    "BreachSeverity",
    "predict_breach",
    "breach_probability_arrays",
    "breach_probability_block",
    "CapacityRecommendation",
    "ShapeRecommendation",
    "recommend_capacity",
    "recommend_shape",
    "overprovision_ratio",
]
