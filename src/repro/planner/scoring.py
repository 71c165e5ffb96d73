"""Distribution-aware blueprint scoring.

A blueprint is only as good as its behaviour against the forecast
*distribution*, not the point forecast: the models already produce
calibrated bands, and the band quantiles give P(breach) over the horizon
directly (:func:`repro.service.thresholds.breach_probability_arrays` —
the same implementation the alert path grades with). Each blueprint is
scored on four axes:

* **breach probability** — P(any horizon step exceeds the capacity the
  blueprint provides), combined across the covered metrics;
* **expected headroom** — the worst metric's fractional gap between
  provided capacity and the forecast peak;
* **overprovision ratio** — the best-case waste, via
  :func:`repro.service.sizing.overprovision_ratio` against the upper
  band's peak (the paper: "a proportion of that provisioned resource
  will probably never be used");
* **cost** — the blueprint's hourly price relative to what the covered
  instances cost today.

The composite is a weighted sum (lower is better) dominated by the
breach term, so the ranking prefers the cheapest blueprint that actually
clears the forecast, with the overprovision penalty steering away from
oversized picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import DataError
from ..models.base import Forecast
from ..service.sizing import overprovision_ratio
from ..service.thresholds import breach_probability_arrays
from .blueprint import Blueprint, CatalogTier, metric_dimension

__all__ = [
    "ForecastBand",
    "InstanceDemand",
    "ScoreWeights",
    "BlueprintScore",
    "score_blueprint",
    "rank_blueprints",
    "demands_from_entries",
]


@dataclass(frozen=True, eq=False)
class ForecastBand:
    """The slice of a forecast the scorer consumes: mean + upper quantile."""

    mean: np.ndarray
    upper: np.ndarray
    alpha: float = 0.05

    @classmethod
    def from_forecast(cls, forecast: Forecast) -> "ForecastBand":
        return cls(
            mean=np.asarray(forecast.mean.values, dtype=float),
            upper=np.asarray(forecast.upper.values, dtype=float),
            alpha=float(forecast.alpha),
        )

    def payload(self) -> dict:
        """Picklable/JSON form for shard fan-in and the CLI."""
        return {
            "mean": [float(v) for v in self.mean],
            "upper": [float(v) for v in self.upper],
            "alpha": float(self.alpha),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ForecastBand":
        return cls(
            mean=np.asarray(payload["mean"], dtype=float),
            upper=np.asarray(payload["upper"], dtype=float),
            alpha=float(payload["alpha"]),
        )


@dataclass(frozen=True, eq=False)
class InstanceDemand:
    """One instance's planning inputs.

    ``capacities`` maps each forecasted metric to the capacity the
    *current* provisioning gives it (the alerting threshold); scoring
    scales that capacity by the candidate blueprint's resource ratio on
    the dimension the metric consumes, so abstract tiers translate into
    metric-space thresholds without a per-metric calibration table.
    """

    instance: str
    tier: CatalogTier
    bands: dict[str, ForecastBand] = field(default_factory=dict)
    capacities: dict[str, float] = field(default_factory=dict)
    replicas: int = 1
    group: str | None = None


@dataclass(frozen=True)
class ScoreWeights:
    """Composite-score weights; breach dominates by design."""

    breach: float = 10.0
    cost: float = 1.0
    overprovision: float = 0.5
    #: Overprovision ratios up to this are free; only the excess is
    #: penalised (some slack is the point of capacity planning).
    target_overprovision: float = 1.5


@dataclass(frozen=True)
class BlueprintScore:
    """How one blueprint fares against the forecast distributions."""

    breach_probability: float
    expected_headroom: float
    overprovision: float
    hourly_cost: float
    composite: float

    def describe(self) -> str:
        return (
            f"p(breach)={self.breach_probability:.1%} "
            f"headroom={self.expected_headroom:+.0%} "
            f"overprovision={self.overprovision:.2f}x "
            f"cost=${self.hourly_cost:.2f}/h score={self.composite:.3f}"
        )


def _capacity_density(demands: Sequence[InstanceDemand], metric: str, dimension: str) -> float:
    """Capacity per provisioned resource unit for one metric.

    Each demand that carries the metric implies a density (its current
    capacity over its current resource amount); the minimum across the
    covered demands is used so a consolidation never assumes a more
    generous translation than its least generous member.
    """
    densities = []
    for demand in demands:
        if metric not in demand.capacities:
            continue
        provided = demand.tier.shape.amount(dimension) * demand.replicas
        if provided <= 0:
            raise DataError(
                f"instance {demand.instance} provides no {dimension}; cannot scale {metric}"
            )
        densities.append(demand.capacities[metric] / provided)
    if not densities:
        raise DataError(f"no covered instance carries metric {metric!r}")
    return min(densities)


def score_blueprint(
    blueprint: Blueprint,
    demands: Sequence[InstanceDemand],
    weights: ScoreWeights = ScoreWeights(),
    reference_cost: float | None = None,
) -> BlueprintScore:
    """Score one blueprint against the demands it covers.

    ``demands`` must be exactly the instances the blueprint covers — one
    for per-instance kinds, the whole co-location group for CONSOLIDATE
    (their bands are summed per metric, truncated to the shortest
    horizon, because consolidated instances share the box). The cost
    term is relative to ``reference_cost`` (defaults to the covered
    instances' current hourly cost), so STAY always lands at 1.0.
    """
    if not demands:
        raise DataError("score_blueprint needs at least one demand")
    covered = {d.instance for d in demands}
    if covered != set(blueprint.instances):
        raise DataError(
            f"blueprint covers {sorted(blueprint.instances)} but demands are {sorted(covered)}"
        )
    if reference_cost is None:
        reference_cost = sum(d.tier.hourly_cost * d.replicas for d in demands)
    metrics = sorted({m for d in demands for m in d.bands if m in d.capacities})
    if not metrics:
        raise DataError("no metric has both a forecast band and a capacity")

    survival = 1.0
    worst_headroom = math.inf
    worst_overprovision = 1.0
    alpha = None
    for metric in metrics:
        parts = [d.bands[metric] for d in demands if metric in d.bands]
        alpha = parts[0].alpha if alpha is None else alpha
        horizon = min(p.mean.size for p in parts)
        if horizon == 0:
            continue
        mean = np.sum([p.mean[:horizon] for p in parts], axis=0)
        upper = np.sum([p.upper[:horizon] for p in parts], axis=0)
        dimension = metric_dimension(metric)
        capacity = _capacity_density(demands, metric, dimension) * blueprint.capacity(
            dimension
        )
        p_metric = breach_probability_arrays(mean, upper, capacity, alpha=parts[0].alpha)
        if math.isfinite(p_metric):
            survival *= 1.0 - p_metric
        finite = mean[np.isfinite(mean)]
        if finite.size and capacity > 0:
            worst_headroom = min(worst_headroom, (capacity - float(finite.max())) / capacity)
        finite_upper = upper[np.isfinite(upper)]
        if finite_upper.size and capacity > 0 and float(finite_upper.max()) > 0:
            worst_overprovision = max(
                worst_overprovision,
                overprovision_ratio(capacity, float(finite_upper.max())),
            )

    breach_probability = 1.0 - survival
    headroom = worst_headroom if math.isfinite(worst_headroom) else 0.0
    cost_term = (
        blueprint.hourly_cost / reference_cost if reference_cost > 0 else blueprint.hourly_cost
    )
    over_penalty = max(0.0, worst_overprovision - weights.target_overprovision)
    composite = (
        weights.breach * breach_probability
        + weights.cost * cost_term
        + weights.overprovision * over_penalty
    )
    return BlueprintScore(
        breach_probability=float(breach_probability),
        expected_headroom=float(headroom),
        overprovision=float(worst_overprovision),
        hourly_cost=float(blueprint.hourly_cost),
        composite=float(composite),
    )


def demands_from_entries(
    entries,
    tier: CatalogTier,
    horizon: int | None = None,
    replicas: int = 1,
) -> list[InstanceDemand]:
    """Build per-instance demands from modelled estate entries.

    ``entries`` are :class:`~repro.service.estate.EstateEntry` objects
    (duck-typed — anything with ``key``, ``series``, ``threshold`` and a
    :class:`~repro.selection.auto.SelectionOutcome` ``outcome`` works);
    entries without a threshold or a fitted outcome are skipped. Each
    entry's forecast is recomputed through
    :meth:`~repro.selection.auto.SelectionOutcome.forecast`, the call the
    estate advisory path makes, so the plan grades the same distribution
    the alerts grade. Entries sharing a workload
    collapse into one demand carrying all of its metrics; the result is
    sorted by instance, which is what makes downstream plans independent
    of registration (and shard) order.
    """
    merged: dict[str, tuple[dict, dict]] = {}
    for entry in entries:
        if entry.threshold is None or entry.outcome is None:
            continue
        steps = horizon or entry.series.frequency.split_rule.horizon
        forecast = entry.outcome.forecast(steps).clipped(0.0)
        bands, capacities = merged.setdefault(entry.key.workload, ({}, {}))
        bands[entry.key.metric] = ForecastBand.from_forecast(forecast)
        capacities[entry.key.metric] = float(entry.threshold)
    return [
        InstanceDemand(
            instance=instance,
            tier=tier,
            bands=merged[instance][0],
            capacities=merged[instance][1],
            replicas=replicas,
        )
        for instance in sorted(merged)
    ]


def rank_blueprints(
    candidates: Sequence[Blueprint],
    demands: Sequence[InstanceDemand],
    weights: ScoreWeights = ScoreWeights(),
    reference_cost: float | None = None,
) -> tuple[tuple[Blueprint, BlueprintScore], ...]:
    """Score every candidate and sort best-first, slug-stable on ties."""
    scored = [
        (bp, score_blueprint(bp, demands, weights, reference_cost)) for bp in candidates
    ]
    scored.sort(key=lambda item: (item[1].composite, item[0].slug()))
    return tuple(scored)
