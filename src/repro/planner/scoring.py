"""Distribution-aware blueprint scoring.

A blueprint is only as good as its behaviour against the forecast
*distribution*, not the point forecast: the models already produce
calibrated bands, and the band quantiles give P(breach) over the horizon
directly (:func:`repro.service.thresholds.breach_probability_block` —
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
from ..service.thresholds import breach_probability_block
from .blueprint import Blueprint, CatalogTier, metric_dimension

__all__ = [
    "ForecastBand",
    "InstanceDemand",
    "ScoreWeights",
    "BlueprintScore",
    "RankingJob",
    "score_blueprint",
    "rank_blueprints",
    "rank_blueprint_block",
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


@dataclass(frozen=True, eq=False)
class RankingJob:
    """One ranking for :func:`rank_blueprint_block`: candidates against demands.

    ``demands`` must be exactly the instances every candidate covers —
    one for per-instance kinds, the whole co-location group for
    CONSOLIDATE. ``reference_cost`` defaults to the covered instances'
    current hourly cost.
    """

    candidates: Sequence[Blueprint]
    demands: Sequence[InstanceDemand]
    reference_cost: float | None = None


def rank_blueprint_block(
    jobs: Sequence[RankingJob], weights: ScoreWeights = ScoreWeights()
) -> list[tuple[tuple[Blueprint, BlueprintScore], ...]]:
    """Score every job's candidates in one block; rank each job best-first.

    Each (candidate, metric) pair is one row of a ``(ΣC, H)`` block: the
    demands' bands for the metric, summed and truncated to their
    shortest horizon (consolidated instances share the box), graded
    against the capacity the candidate provides. P(breach) for every
    row comes from one
    :func:`~repro.service.thresholds.breach_probability_block` call per
    band ``alpha``; shorter rows are NaN-padded, which contributes an
    exact survival factor of 1.0, so each row's probability is
    bit-identical to grading it alone. Per candidate, metrics combine
    as independent survivals, the worst metric sets headroom and
    overprovision, and the cost term is relative to the job's reference
    cost, so STAY always lands at 1.0. Ties rank slug-stable.
    :func:`score_blueprint` and :func:`rank_blueprints` are its one-job
    cases.
    """
    bands: list[tuple[np.ndarray, np.ndarray]] = []
    rows: list[tuple[int, float, float]] = []  # (band, capacity, alpha)
    plans = []
    for job in jobs:
        demands = list(job.demands)
        if not demands:
            raise DataError("score_blueprint needs at least one demand")
        covered = {d.instance for d in demands}
        for blueprint in job.candidates:
            if covered != set(blueprint.instances):
                raise DataError(
                    f"blueprint covers {sorted(blueprint.instances)} "
                    f"but demands are {sorted(covered)}"
                )
        reference_cost = job.reference_cost
        if reference_cost is None:
            reference_cost = sum(d.tier.hourly_cost * d.replicas for d in demands)
        metrics = sorted({m for d in demands for m in d.bands if m in d.capacities})
        if job.candidates and not metrics:
            raise DataError("no metric has both a forecast band and a capacity")
        # Per metric: its summed band, the dimension it consumes and the
        # capacity one resource unit of that dimension buys.
        summed = []
        for metric in metrics:
            parts = [d.bands[metric] for d in demands if metric in d.bands]
            horizon = min(p.mean.size for p in parts)
            if horizon == 0 or not job.candidates:
                continue
            bands.append(
                (
                    np.sum([p.mean[:horizon] for p in parts], axis=0),
                    np.sum([p.upper[:horizon] for p in parts], axis=0),
                )
            )
            dimension = metric_dimension(metric)
            density = _capacity_density(demands, metric, dimension)
            summed.append((len(bands) - 1, dimension, density, parts[0].alpha))
        candidate_rows = []
        for blueprint in job.candidates:
            own = []
            for band, dimension, density, alpha in summed:
                own.append(len(rows))
                rows.append((band, density * blueprint.capacity(dimension), alpha))
            candidate_rows.append(own)
        plans.append((job, reference_cost, candidate_rows))

    probability, peak, peak_upper = _score_rows(bands, rows)
    ranked = []
    for job, reference_cost, candidate_rows in plans:
        scored = []
        for blueprint, own in zip(job.candidates, candidate_rows):
            survival = 1.0
            worst_headroom = math.inf
            worst_overprovision = 1.0
            for r in own:
                band, capacity, __ = rows[r]
                p_metric = probability[r]
                if math.isfinite(p_metric):
                    survival *= 1.0 - p_metric
                top = peak[band]
                if top is not None and capacity > 0:
                    worst_headroom = min(worst_headroom, (capacity - top) / capacity)
                top = peak_upper[band]
                if top is not None and capacity > 0 and top > 0:
                    worst_overprovision = max(
                        worst_overprovision, overprovision_ratio(capacity, top)
                    )
            breach_probability = 1.0 - survival
            headroom = worst_headroom if math.isfinite(worst_headroom) else 0.0
            cost_term = (
                blueprint.hourly_cost / reference_cost
                if reference_cost > 0
                else blueprint.hourly_cost
            )
            over_penalty = max(0.0, worst_overprovision - weights.target_overprovision)
            composite = (
                weights.breach * breach_probability
                + weights.cost * cost_term
                + weights.overprovision * over_penalty
            )
            score = BlueprintScore(
                breach_probability=float(breach_probability),
                expected_headroom=float(headroom),
                overprovision=float(worst_overprovision),
                hourly_cost=float(blueprint.hourly_cost),
                composite=float(composite),
            )
            scored.append((blueprint, score))
        scored.sort(key=lambda item: (item[1].composite, item[0].slug()))
        ranked.append(tuple(scored))
    return ranked


def _score_rows(
    bands: list[tuple[np.ndarray, np.ndarray]], rows: list[tuple[int, float, float]]
) -> tuple[list[float], list[float | None], list[float | None]]:
    """P(breach) per row, and each band's finite mean and upper peaks.

    A peak is ``None`` when the band has no finite step.
    """
    if not rows:
        return [], [], []
    width = max(mean.size for mean, __ in bands)
    mean = np.full((len(bands), width), np.nan)
    upper = np.full((len(bands), width), np.nan)
    for b, (band_mean, band_upper) in enumerate(bands):
        mean[b, : band_mean.size] = band_mean
        upper[b, : band_upper.size] = band_upper
    peaks = []
    for block in (mean, upper):
        finite = np.isfinite(block)
        top = np.max(np.where(finite, block, -np.inf), axis=1).tolist()
        peaks.append([t if any_ else None for t, any_ in zip(top, finite.any(axis=1).tolist())])
    index = np.array([band for band, __, __ in rows])
    capacity = np.array([cap for __, cap, __ in rows])
    alphas = np.array([alpha for __, __, alpha in rows])
    probability = np.empty(len(rows))
    for alpha in sorted(set(alphas.tolist())):
        picked = np.flatnonzero(alphas == alpha)
        probability[picked] = breach_probability_block(
            mean[index[picked]], upper[index[picked]], capacity[picked], alpha
        )
    return probability.tolist(), peaks[0], peaks[1]


def score_blueprint(
    blueprint: Blueprint,
    demands: Sequence[InstanceDemand],
    weights: ScoreWeights = ScoreWeights(),
    reference_cost: float | None = None,
) -> BlueprintScore:
    """Score one blueprint against the demands it covers.

    The one-job, one-candidate case of :func:`rank_blueprint_block`.
    ``demands`` must be exactly the instances the blueprint covers — one
    for per-instance kinds, the whole co-location group for CONSOLIDATE
    (their bands are summed per metric, truncated to the shortest
    horizon, because consolidated instances share the box). The cost
    term is relative to ``reference_cost`` (defaults to the covered
    instances' current hourly cost), so STAY always lands at 1.0.
    """
    ((__, score),) = rank_blueprint_block(
        [RankingJob((blueprint,), demands, reference_cost)], weights
    )[0]
    return score


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
    """Score every candidate and sort best-first, slug-stable on ties.

    The one-job case of :func:`rank_blueprint_block`.
    """
    return rank_blueprint_block([RankingJob(candidates, demands, reference_cost)], weights)[0]
