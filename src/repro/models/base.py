"""Model protocol and the :class:`Forecast` result type.

Every forecasting technique in the library — ARIMA/SARIMAX, the
exponential-smoothing family (HES), TBATS and the naive baselines — follows
the same two-step shape the paper's pipeline expects:

1. ``model.fit(train_series, ...)`` returns a *fitted* object holding the
   estimated parameters and in-sample residuals;
2. ``fitted.forecast(horizon)`` returns a :class:`Forecast`: predicted
   values plus the error bars the problem definition (Section 3) requires.

The fitted object also exposes ``label()`` — the human-readable model name
that appears in the paper's Table 2 rows (e.g. ``"SARIMAX (2,1,1)(1,1,1,24)"``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..core.stats import band_z
from ..core.timeseries import TimeSeries
from ..exceptions import DataError, ModelError

__all__ = ["Forecast", "FittedModel", "ForecastModel", "check_series"]


@dataclass(frozen=True)
class Forecast:
    """A point forecast with symmetric error bars.

    Attributes
    ----------
    mean:
        Predicted values as a :class:`TimeSeries` continuing the training
        series' clock.
    lower / upper:
        Prediction-interval bounds at confidence ``1 - alpha``.
    alpha:
        Significance level of the interval (default 0.05 ⇒ 95 %).
    model_label:
        Name of the generating model, for report tables.
    """

    mean: TimeSeries
    lower: TimeSeries
    upper: TimeSeries
    alpha: float
    model_label: str

    def __post_init__(self) -> None:
        if not (len(self.mean) == len(self.lower) == len(self.upper)):
            raise ModelError("forecast mean/lower/upper must be the same length")
        if not 0.0 < self.alpha < 1.0:
            raise ModelError(f"alpha must be in (0, 1), got {self.alpha}")

    @property
    def horizon(self) -> int:
        return len(self.mean)

    def clipped(self, minimum: float = 0.0) -> "Forecast":
        """Clip the forecast at a physical floor (resource usage can't go
        negative); applied by the service layer before reporting."""
        return Forecast(
            mean=self.mean.with_values(np.maximum(self.mean.values, minimum)),
            lower=self.lower.with_values(np.maximum(self.lower.values, minimum)),
            upper=self.upper.with_values(np.maximum(self.upper.values, minimum)),
            alpha=self.alpha,
            model_label=self.model_label,
        )


def check_series(series: TimeSeries, min_obs: int) -> np.ndarray:
    """Validate a training series and return its value array."""
    if not isinstance(series, TimeSeries):
        raise DataError(f"expected a TimeSeries, got {type(series).__name__}")
    if series.has_missing():
        raise DataError(
            "training series contains missing values; run interpolate_missing first"
        )
    if not series.is_finite():
        raise DataError("training series contains non-finite values")
    if len(series) < min_obs:
        raise DataError(
            f"model needs at least {min_obs} observations, series has {len(series)}"
        )
    return series.values


@dataclass
class FittedModel(abc.ABC):
    """Base class for fitted models.

    Subclasses store their estimated parameters and must implement
    :meth:`forecast` and :meth:`label`. The training series is retained so
    forecasts can continue its timestamps and so the staleness monitor can
    compare new observations against in-sample behaviour.
    """

    train: TimeSeries
    residuals: np.ndarray = field(repr=False)
    sigma2: float
    n_params: int

    @abc.abstractmethod
    def forecast(self, horizon: int, alpha: float = 0.05) -> Forecast:
        """Predict ``horizon`` future points with ``1 - alpha`` error bars."""

    @abc.abstractmethod
    def label(self) -> str:
        """Table 2-style model name."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _future_series(self, values: np.ndarray) -> TimeSeries:
        """Wrap forecast values as a series continuing the training clock."""
        return TimeSeries(
            values=values,
            frequency=self.train.frequency,
            start=self.train.end + self.train.frequency.seconds,
            name=self.train.name,
        )

    def _interval(
        self, mean: np.ndarray, std: np.ndarray, alpha: float
    ) -> tuple[np.ndarray, np.ndarray]:
        if np.any(std < 0):
            raise ModelError("negative forecast standard deviation")
        z = band_z(alpha)
        return mean - z * std, mean + z * std

    def make_forecast(
        self, mean: np.ndarray, std: np.ndarray, alpha: float
    ) -> Forecast:
        """Assemble a :class:`Forecast` from mean and standard deviations."""
        lower, upper = self._interval(mean, std, alpha)
        return Forecast(
            mean=self._future_series(mean),
            lower=self._future_series(lower),
            upper=self._future_series(upper),
            alpha=alpha,
            model_label=self.label(),
        )

    @property
    def aic(self) -> float:
        """Gaussian AIC from the in-sample residuals."""
        from ..core.metrics import aic as _aic

        resid = self.residuals[np.isfinite(self.residuals)]
        return _aic(float(resid @ resid), resid.size, self.n_params)

    @property
    def bic(self) -> float:
        """Gaussian BIC from the in-sample residuals."""
        from ..core.metrics import bic as _bic

        resid = self.residuals[np.isfinite(self.residuals)]
        return _bic(float(resid @ resid), resid.size, self.n_params)

    def summary(self) -> str:
        """Human-readable fit report: identity, fit statistics, residual health.

        The text equivalent of a statsmodels summary, kept to what an
        operator reading a log actually uses.
        """
        from ..core.stats import ljung_box

        resid = self.residuals[np.isfinite(self.residuals)]
        lines = [
            f"Model:        {self.label()}",
            f"Observations: {len(self.train)}"
            + (f" ({self.train.name})" if self.train.name else ""),
            f"Parameters:   {self.n_params}",
            f"sigma^2:      {self.sigma2:.6g}",
            f"AIC:          {self.aic:.2f}",
            f"BIC:          {self.bic:.2f}",
        ]
        if resid.size >= 12:
            lb = ljung_box(resid, lags=min(10, resid.size - 2))
            verdict = "white noise" if lb.is_white_noise() else "autocorrelated"
            lines.append(
                f"Ljung-Box:    Q={lb.statistic:.2f} p={lb.p_value:.3f} ({verdict})"
            )
        lines.append(
            f"Residuals:    mean {resid.mean():+.4g}, std {resid.std():.4g}"
            if resid.size
            else "Residuals:    (none)"
        )
        return "\n".join(lines)


class ForecastModel(abc.ABC):
    """Base class for unfitted model specifications."""

    @abc.abstractmethod
    def fit(self, series: TimeSeries, **kwargs) -> FittedModel:
        """Estimate parameters on a training series."""

    @property
    def min_observations(self) -> int:
        """Fewest observations the model can be estimated from."""
        return 10
