"""Proactive threshold-breach prediction.

The paper's conclusion positions the forecast as an upgrade over "the
'old' threshold-based monitoring approach, that often led to a reactive
way of working": "utilising these techniques to predict when a threshold
is likely to be breached is an advisable way to implement this approach
for proactive monitoring". This module answers the question the pipeline
exists for — *when will I run out of resource?* — by intersecting a
forecast (with its error bars) with a capacity threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from ..core.stats import band_z
from ..exceptions import DataError
from ..models.base import Forecast

__all__ = [
    "BreachSeverity",
    "BreachPrediction",
    "predict_breach",
    "predict_breach_arrays",
    "breach_probability_block",
    "breach_probability_arrays",
]


class BreachSeverity(enum.Enum):
    """How certain the predicted breach is, given the error bars."""

    NONE = "no breach predicted"
    POSSIBLE = "upper error bar crosses the threshold"
    LIKELY = "point forecast crosses the threshold"
    CERTAIN = "lower error bar crosses the threshold"


@dataclass(frozen=True)
class BreachPrediction:
    """Outcome of a threshold check against a forecast.

    Attributes
    ----------
    severity:
        Confidence grade of the breach.
    first_breach_step:
        1-based forecast step at which the (grade-defining) crossing
        happens, or ``None`` when severity is NONE.
    first_breach_timestamp:
        Timestamp of that step.
    threshold:
        The capacity limit checked against.
    headroom:
        Threshold minus the forecast peak — negative when the point
        forecast breaches.
    probability:
        P(any step of the horizon exceeds the threshold), computed from
        the band quantiles by :func:`breach_probability_block`. The
        first-crossing severity answers *when and how certainly*; this
        answers *how likely at all* — the quantity the provisioning
        planner's scorer optimises. ``NaN`` for degenerate forecasts.
    degraded:
        Empty for a first-class advisory from the selected model.
        Otherwise the degradation mode that produced it
        (``"cached-model"`` or ``"seasonal-naive"``) — the scheduler's
        fallback ladder keeps advisories flowing when selection fails,
        and this marks them as lower-confidence.
    """

    severity: BreachSeverity
    first_breach_step: int | None
    first_breach_timestamp: float | None
    threshold: float
    headroom: float
    probability: float = 0.0
    degraded: str = ""

    def describe(self) -> str:
        prefix = f"DEGRADED[{self.degraded}] " if self.degraded else ""
        if self.severity is BreachSeverity.NONE:
            return (
                f"{prefix}no breach of {self.threshold:g} within the horizon "
                f"(headroom {self.headroom:.1f})"
            )
        return (
            f"{prefix}{self.severity.value} at step {self.first_breach_step} "
            f"(threshold {self.threshold:g}, headroom {self.headroom:.1f})"
        )


def predict_breach(forecast: Forecast, threshold: float) -> BreachPrediction:
    """Grade a forecast against a capacity threshold.

    Severity escalates with certainty: if even the *lower* error bar
    crosses the threshold the breach is CERTAIN; if only the point
    forecast crosses it is LIKELY; if just the upper bar grazes it the
    breach is POSSIBLE. The reported step is the first crossing of the
    strongest breached band.

    Degenerate forecasts grade safe, not loud: an empty horizon or one
    with no finite point forecast (a model that only emitted NaN) yields
    a NONE verdict with ``NaN`` headroom — the streaming advisory loop
    must keep ticking past a sick model, not crash on it. A zero-width
    interval (``lower == mean == upper``, e.g. a naive model with zero
    residual variance) is legitimate: all three bands then cross at the
    same step and the verdict is simply CERTAIN.

    This is the one-row case of :func:`predict_breach_arrays`.
    """
    mean = forecast.mean
    (advisory,) = predict_breach_arrays(
        mean.values[None, :],
        forecast.lower.values[None, :],
        forecast.upper.values[None, :],
        [mean.start],
        float(mean.frequency.seconds),
        [threshold],
        alpha=forecast.alpha,
    )
    return advisory


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DataError("alpha must be in (0, 1)")


def breach_probability_block(
    mean: np.ndarray, upper: np.ndarray, thresholds, alpha: float = 0.05
) -> np.ndarray:
    """Per-row P(any step exceeds its row's threshold) over a ``(B, H)`` block.

    The models' intervals are Gaussian quantiles
    (:meth:`~repro.models.base.FittedModel.make_forecast`): the half-width
    ``upper - mean`` is ``z_{1-alpha/2} * sigma``, so each step's
    predictive sigma is recoverable from the band alone and its
    exceedance is the normal tail ``ndtr(-margin)``. Steps combine as
    independent exceedances, ``1 - prod(1 - p_t)``. A step where the
    mean or upper band is not finite contributes a survival factor of
    exactly 1.0; because numpy's multiply-reduce runs in order along the
    row (add, unlike multiply, sums pairwise), each row's product is
    bit-identical to the product over that row's finite steps alone, so
    NaN-padding a short row changes nothing. A row with no finite step
    is ``NaN``; a zero-width band (zero residual variance) is a point
    mass, so each step contributes exactly 0 or 1.

    The alert path (:func:`predict_breach_arrays`) and the planner's
    block scorer both grade through this one implementation.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if not np.isfinite(thresholds).all():
        raise DataError("threshold must be finite")
    _check_alpha(alpha)
    mean = np.asarray(mean, dtype=float)
    upper = np.asarray(upper, dtype=float)
    finite = np.isfinite(mean) & np.isfinite(upper)
    threshold = thresholds[:, None]
    steps = np.where(finite & (mean >= threshold), 1.0, 0.0)
    half = np.subtract(upper, mean, out=np.zeros_like(mean), where=finite)
    widened = half > 0.0
    if widened.any():
        threshold = np.broadcast_to(threshold, mean.shape)
        margin = (threshold[widened] - mean[widened]) * (band_z(alpha) / half[widened])
        steps[widened] = special.ndtr(-margin)
    probability = 1.0 - np.prod(1.0 - steps, axis=1)
    probability[~finite.any(axis=1)] = np.nan
    return probability


def breach_probability_arrays(
    mean: np.ndarray,
    upper: np.ndarray,
    threshold: float,
    alpha: float = 0.05,
) -> float:
    """P(any step of the horizon exceeds ``threshold``), from band quantiles.

    The one-row case of :func:`breach_probability_block` — the
    horizon-level number :func:`predict_breach` reports alongside the
    first-crossing severity. Degenerate inputs grade safe: no finite
    step yields ``NaN``; a zero-width band is a point mass.
    """
    mean = np.asarray(mean, dtype=float)
    upper = np.asarray(upper, dtype=float)
    probability = breach_probability_block(mean[None, :], upper[None, :], [threshold], alpha)
    return float(probability[0])


def _first_crossings(
    values: np.ndarray, thresholds: np.ndarray
) -> tuple[list[bool], list[int]]:
    """Per row: whether any step reaches the threshold, and the first such step."""
    hits = values >= thresholds[:, None]
    return hits.any(axis=1).tolist(), hits.argmax(axis=1).tolist()


def predict_breach_arrays(
    mean: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    starts: Sequence[float],
    step: float,
    thresholds: Sequence[float],
    alpha: float = 0.05,
) -> list[BreachPrediction]:
    """Grade a ``(B, H)`` block of forecast bands, one verdict per row.

    Row ``i`` is graded exactly as :func:`predict_breach` grades one
    forecast whose bands are ``mean[i]``, ``lower[i]``, ``upper[i]``,
    whose first step falls at ``starts[i]`` and whose steps are ``step``
    seconds apart, against ``thresholds[i]`` (per row: a cohort can mix
    metrics). The cohort scheduler grades a whole batched forecast
    block in this one array pass instead of one call per key;
    :func:`predict_breach` is its one-row case, so both paths share one
    implementation and give bit-identical verdicts.

    First crossings come from ``argmax`` over the three band masks,
    headroom from a row max over finite steps and P(breach) from one
    normal-tail call over the whole block. Every field of the returned
    verdicts is a plain Python ``float``/``int`` (or the threshold object
    as passed), never a numpy scalar.
    """
    mean = np.asarray(mean, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    thresholds = list(thresholds)
    limits = np.asarray(thresholds, dtype=float)
    if not np.isfinite(limits).all():
        raise DataError("threshold must be finite")
    _check_alpha(alpha)
    rows, horizon = mean.shape
    if not (lower.shape == upper.shape == mean.shape and len(starts) == len(limits) == rows):
        raise DataError("band block, starts and thresholds must agree on rows and horizon")
    finite = np.isfinite(mean)
    # A row without a finite point forecast grades NONE with NaN headroom.
    scored = finite.any(axis=1)
    peak = np.max(np.where(finite, mean, -np.inf), axis=1, initial=-np.inf)
    headroom = np.where(scored, limits - peak, np.nan).tolist()
    # A max over ±0 ties may pick either zero, differently in a block
    # than in one row; the sign survives the subtraction only from a
    # -0.0 limit, so those rows take their one-row max.
    for i in np.flatnonzero((peak == 0.0) & (limits == 0.0)).tolist():
        headroom[i] = float(limits[i] - mean[i][finite[i]].max())
    probability = breach_probability_block(mean, upper, limits, alpha).tolist()
    bands = (
        [
            (BreachSeverity.CERTAIN, *_first_crossings(lower, limits)),
            (BreachSeverity.LIKELY, *_first_crossings(mean, limits)),
            (BreachSeverity.POSSIBLE, *_first_crossings(upper, limits)),
        ]
        if horizon
        else []
    )
    advisories: list[BreachPrediction] = []
    for i, (threshold, graded) in enumerate(zip(thresholds, scored.tolist())):
        severity, idx, at = BreachSeverity.NONE, None, None
        if graded:
            for band, crossed, first in bands:
                if crossed[i]:
                    severity, idx = band, first[i]
                    at = float(starts[i] + idx * step)
                    break
        advisories.append(
            BreachPrediction(
                severity=severity,
                first_breach_step=None if idx is None else idx + 1,
                first_breach_timestamp=at,
                threshold=threshold,
                headroom=headroom[i],
                probability=probability[i],
            )
        )
    return advisories
