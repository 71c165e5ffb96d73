"""Stored-model lifecycle: weekly expiry and RMSE-degradation monitoring.

The paper's pipeline stores the winning model "for a period of one week or
until the model's RMSE drops to a point where it is rendered useless", and
only relearns "unless the number of observations increases significantly or
the time since the last use of the models lengthens beyond a certain
period". :class:`ModelMonitor` encodes those rules:

* **age**: a stored model expires ``max_age_seconds`` (default 7 days)
  after it was fitted;
* **accuracy**: each new batch of observations is compared against the
  model's forecast; once at least three pairs are scoreable and the
  rolling RMSE exceeds ``degradation_factor ×`` the RMSE recorded at
  selection time, the model is declared stale (observations with no
  finite forecast to compare against are no evidence either way);
* **data growth**: when the observation count grows by more than
  ``growth_factor`` relative to the training size, retraining is advised
  even if accuracy still holds.

The rule order lives in :func:`staleness_verdict` alone. Its accuracy
input is a flag plus the reason that names it, so the batch
:class:`~repro.service.planner.CapacityPlanner`'s monitor (rolling RMSE,
``DEGRADED``) and the streaming scheduler (a CUSUM trip on roll
innovations, ``DRIFT``, or a roll that raised, ``ROLL_FAILED``) share one
precedence.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..core.metrics import rmse
from ..core.timeseries import TimeSeries
from ..exceptions import DataError
from ..models.base import FittedModel, Forecast
from .auto import SelectionOutcome

__all__ = [
    "StalenessVerdict",
    "StalenessReason",
    "ACCURACY_REASONS",
    "ModelMonitor",
    "staleness_verdict",
]

WEEK_SECONDS = 7 * 24 * 3600
#: Stale once the observations since fitting reach this share of the
#: training size.
GROWTH_FACTOR = 0.5


class StalenessReason(enum.Enum):
    """Why a stored model was declared stale."""

    FRESH = "fresh"
    EXPIRED = "max age exceeded"
    DEGRADED = "rmse degraded beyond threshold"
    DRIFT = "cusum drift trip"
    ROLL_FAILED = "model roll failed"
    DATA_GROWTH = "observation count grew significantly"


#: The reasons the accuracy rule reports, whichever signal fired it.
ACCURACY_REASONS = frozenset(
    {StalenessReason.DEGRADED, StalenessReason.DRIFT, StalenessReason.ROLL_FAILED}
)


@dataclass(frozen=True)
class StalenessVerdict:
    """Outcome of a staleness check."""

    stale: bool
    reason: StalenessReason
    current_rmse: float | None
    baseline_rmse: float
    age_seconds: float

    def describe(self) -> str:
        state = "STALE" if self.stale else "ok"
        detail = f"age={self.age_seconds / 3600:.1f}h"
        if self.current_rmse is not None:
            detail += f" rmse={self.current_rmse:.3f} (baseline {self.baseline_rmse:.3f})"
        return f"{state}: {self.reason.value} [{detail}]"


def staleness_verdict(
    age_seconds: float,
    degraded: bool,
    observed: int,
    train_size: int,
    baseline_rmse: float,
    current_rmse: float | None = None,
    max_age_seconds: float = WEEK_SECONDS,
    growth_factor: float = GROWTH_FACTOR,
    signal: StalenessReason = StalenessReason.DEGRADED,
) -> StalenessVerdict:
    """Apply the staleness rules in order; the first one that triggers wins.

    Expiry beats accuracy, and accuracy beats data growth. ``degraded``
    is the accuracy signal however the caller measured it, and
    ``signal`` (one of :data:`ACCURACY_REASONS`) names it in the
    verdict: rolling RMSE beyond a multiple of the baseline
    (``DEGRADED``), a CUSUM drift trip (``DRIFT``) or a roll that raised
    (``ROLL_FAILED``). ``observed`` counts the observations since
    fitting and ``train_size`` the observations the model was fitted on.
    """
    if signal not in ACCURACY_REASONS:
        raise DataError(f"{signal} is not an accuracy signal")
    if age_seconds > max_age_seconds:
        reason = StalenessReason.EXPIRED
    elif degraded:
        reason = signal
    elif observed >= growth_factor * train_size:
        reason = StalenessReason.DATA_GROWTH
    else:
        reason = StalenessReason.FRESH
    return StalenessVerdict(
        reason is not StalenessReason.FRESH, reason, current_rmse, baseline_rmse, age_seconds
    )


@dataclass
class ModelMonitor:
    """Tracks one stored model against incoming observations.

    Parameters
    ----------
    model:
        The fitted model as stored by the selection pipeline.
    baseline_rmse:
        The test RMSE recorded when the model won selection.
    fitted_at:
        Timestamp (seconds) the model was fitted; defaults to the end of
        its training series.
    max_age_seconds:
        Hard expiry (paper: one week).
    degradation_factor:
        Stale when observed RMSE exceeds ``factor × baseline``.
    growth_factor:
        Stale when the observation count reaches
        ``(1 + growth_factor) × train size``.
    """

    model: FittedModel
    baseline_rmse: float
    fitted_at: float | None = None
    max_age_seconds: float = WEEK_SECONDS
    degradation_factor: float = 2.0
    growth_factor: float = GROWTH_FACTOR
    _observed: list[float] = field(default_factory=list, repr=False)
    _forecast_cache: np.ndarray | None = field(default=None, repr=False)
    #: ``horizon -> Forecast`` the observations are compared against.
    _forecast: Callable[[int], Forecast] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.baseline_rmse < 0:
            raise DataError("baseline_rmse must be non-negative")
        if self.fitted_at is None:
            self.fitted_at = self.model.train.end
        self._forecast = self.model.forecast

    @classmethod
    def for_outcome(cls, outcome: SelectionOutcome, **kwargs) -> ModelMonitor:
        """Watch a selection winner against :meth:`SelectionOutcome.forecast`.

        The baseline is the outcome's test RMSE; ``kwargs`` are the other
        fields. A shock-regressor winner forecasts only with its
        calendar's future rows, which the outcome builds.
        """
        monitor = cls(model=outcome.model, baseline_rmse=outcome.test_rmse, **kwargs)
        monitor._forecast = outcome.forecast
        return monitor

    # ------------------------------------------------------------------
    def observe(self, values: "np.ndarray | list[float] | TimeSeries") -> None:
        """Record newly arrived observations following the training window."""
        arr = values.values if isinstance(values, TimeSeries) else np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise DataError("observations must be one-dimensional")
        self._observed.extend(float(v) for v in arr)
        self._forecast_cache = None

    @property
    def n_observed(self) -> int:
        return len(self._observed)

    def _rolling_rmse(self) -> tuple[float | None, int]:
        """RMSE over the scoreable (observation, forecast) pairs, and their count.

        A pair is scoreable when both values are finite; with none, there
        is no accuracy evidence and the RMSE is ``None``.
        """
        if not self._observed:
            return None, 0
        n = len(self._observed)
        if self._forecast_cache is None or self._forecast_cache.size < n:
            self._forecast_cache = self._forecast(n).mean.values
        observed, predicted = np.asarray(self._observed), self._forecast_cache[:n]
        scored = int(np.count_nonzero(np.isfinite(observed) & np.isfinite(predicted)))
        if not scored:
            return None, 0
        return rmse(observed, predicted), scored

    def check(self, now: float | None = None) -> StalenessVerdict:
        """Evaluate all staleness rules; first triggered rule wins."""
        step = self.model.train.frequency.seconds
        if now is None:
            now = self.fitted_at + self.n_observed * step
        current, scored = self._rolling_rmse()
        degraded = (
            current is not None
            and scored >= 3
            and self.baseline_rmse > 0
            and current > self.degradation_factor * self.baseline_rmse
        )
        return staleness_verdict(
            age_seconds=max(0.0, now - self.fitted_at),
            degraded=degraded,
            observed=self.n_observed,
            train_size=len(self.model.train),
            baseline_rmse=self.baseline_rmse,
            current_rmse=current,
            max_age_seconds=self.max_age_seconds,
            growth_factor=self.growth_factor,
        )
