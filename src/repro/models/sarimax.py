"""SARIMAX: seasonal ARIMA with exogenous regressors and Fourier terms.

Section 4.2 of the paper extends SARIMA with *exogenous variables* — shock
indicators for backups, batch jobs and fail-overs — and Section 4.4 adds
*Fourier terms* as further external regressors to capture multiple
seasonality (a daily cycle inside a weekly cycle). Both reduce to the same
mechanism implemented here: regression with ARMA errors,

    y_t = X_t β + u_t,   φ(B)Φ(B^s)(1−B)^d(1−B^s)^D u_t = θ(B)Θ(B^s) a_t

estimated by iterated feasible GLS: an OLS pass for β, a CSS pass for the
ARMA parameters on the regression residual, then β is re-estimated on
series filtered through the fitted ARMA transfer function (which whitens
the errors), and the loop repeats. Two iterations are ample in practice.

Forecasting adds ``X_future β`` back onto the ARMA forecast of ``u``;
callers must therefore know future regressor values — which is exactly why
the paper restricts exogenous variables to *scheduled/recurring* shocks
(backups every 6 hours) and deterministic Fourier terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import signal

from ..core.fourier import fourier_terms
from ..core.timeseries import TimeSeries
from ..exceptions import DataError, ModelError
from .arima import (
    Arima,
    ArimaOrder,
    FittedArima,
    SeasonalOrder,
    _observations,
    _polys,
    _warmup,
)
from .base import Forecast, ForecastModel, check_series
from .polynomials import difference_poly, polymul

__all__ = ["Sarimax", "FittedSarimax"]


def _as_matrix(exog, n_rows: int, what: str) -> np.ndarray:
    X = np.asarray(exog, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise DataError(f"{what} must be 1- or 2-dimensional, got {X.ndim} dims")
    if X.shape[0] != n_rows:
        raise DataError(f"{what} has {X.shape[0]} rows but the series has {n_rows}")
    if not np.isfinite(X).all():
        raise DataError(f"{what} contains non-finite values")
    return X


@dataclass
class FittedSarimax(FittedArima):
    """A fitted SARIMAX: regression coefficients plus the ARMA error model."""

    beta: np.ndarray = field(default=None, repr=False)
    exog_columns: int = 0
    fourier_periods: tuple[float, ...] = ()
    fourier_orders: tuple[int, ...] = ()
    _label_override: str = ""

    def label(self) -> str:
        if self._label_override:
            return f"{self._label_override} {self.order}{self.seasonal}"
        parts = ["SARIMAX"]
        if self.fourier_periods:
            parts.append("FFT")
        if self.exog_columns:
            parts.append("Exogenous")
        suffix = f"{self.order}" if self.seasonal.is_null else f"{self.order}{self.seasonal}"
        return f"{' '.join(parts)} {suffix}"

    # Stored by Sarimax.fit and extended by ``advance``: the shock
    # regressor rows of ``train``. Unannotated, so it is a class
    # attribute rather than a dataclass field and stays out of repr and
    # equality.
    _train_exog = None

    def _future_fourier(self, horizon: int) -> np.ndarray | None:
        if not self.fourier_periods:
            return None
        return fourier_terms(
            horizon,
            list(self.fourier_periods),
            list(self.fourier_orders),
            start=len(self.train),
        )

    def _future_design(self, rows: int, exog, what: str) -> np.ndarray | None:
        """The regressor rows that follow ``train``: shock block, then Fourier."""
        blocks: list[np.ndarray] = []
        if self.exog_columns:
            if exog is None:
                raise ModelError(
                    "this SARIMAX was fitted with exogenous regressors; "
                    f"pass {what} with their values for the next {rows} steps"
                )
            X = _as_matrix(exog, rows, what)
            if X.shape[1] != self.exog_columns:
                raise ModelError(
                    f"{what} has {X.shape[1]} columns, model expects {self.exog_columns}"
                )
            blocks.append(X)
        elif exog is not None and np.asarray(exog).size:
            raise ModelError("model was fitted without exogenous regressors")
        fourier = self._future_fourier(rows)
        if fourier is not None:
            blocks.append(fourier)
        return np.hstack(blocks) if blocks else None

    def forecast(
        self,
        horizon: int,
        alpha: float = 0.05,
        exog_future: np.ndarray | None = None,
    ) -> Forecast:
        """Forecast ``horizon`` steps; future shock indicators go in
        ``exog_future`` (required when the model was fitted with exog)."""
        design = self._future_design(horizon, exog_future, "exog_future")
        mean, std = self._forecast_adjusted(horizon)
        if design is not None:
            mean = mean + design @ self.beta
        return self.make_forecast(mean, std, alpha)

    def advance(
        self, values: np.ndarray, exog: np.ndarray | None = None
    ) -> tuple["FittedSarimax", np.ndarray]:
        """Roll the origin through new observations on the regression-adjusted scale.

        The ARMA state continues through ``values − X β``, where X holds
        the new rows' regressors: ``exog`` (one row per new observation,
        required when the model was fitted with shock regressors) and the
        Fourier terms that continue ``train``'s phase. Innovations are
        therefore the one-step errors of the forecast this model serves.
        The rolled model's shock regressor block grows by the ``exog``
        rows, so it forecasts like a fit on the extended series.
        """
        raw = _observations(values)
        design = self._future_design(raw.size, exog, "exog")
        z_new = raw - design @ self.beta if design is not None else raw
        rolled, innovations = self._roll(raw, z_new)
        if self._train_exog is not None:
            rolled._train_exog = np.vstack([self._train_exog, design[:, : self.exog_columns]])
        return rolled, innovations

    def _adjusted_train(self) -> np.ndarray:
        """``train`` minus its regression part, the series the ARMA part models."""
        if not self.beta.size:
            return self.train.values
        return self.train.values - self._design_for_train() @ self.beta

    def _design_for_train(self) -> np.ndarray:
        """Rebuild the training design matrix (exog part is cached)."""
        blocks = []
        if self._train_exog is not None:
            blocks.append(self._train_exog)
        if self.fourier_periods:
            blocks.append(
                fourier_terms(
                    len(self.train),
                    list(self.fourier_periods),
                    list(self.fourier_orders),
                )
            )
        if not blocks:
            return np.empty((len(self.train), 0))
        return np.hstack(blocks)


class Sarimax(ForecastModel):
    """SARIMAX specification: SARIMA + exogenous shocks + Fourier terms.

    Parameters
    ----------
    order / seasonal:
        As for :class:`~repro.models.arima.Arima`.
    fourier_periods / fourier_orders:
        Seasonal periods (e.g. ``[24, 168]``) and harmonic counts
        (e.g. ``[2, 1]``) for the Section 4.4 Fourier regressors. The
        periods here model *additional* seasonality beyond the seasonal
        SARIMA component.
    trend / maxiter:
        As for :class:`~repro.models.arima.Arima`.
    gls_iterations:
        Number of feasible-GLS refinement passes for β (2 is plenty).
    """

    def __init__(
        self,
        order: ArimaOrder | tuple[int, int, int],
        seasonal: SeasonalOrder | tuple[int, int, int, int] | None = None,
        fourier_periods: list[float] | tuple[float, ...] = (),
        fourier_orders: list[int] | tuple[int, ...] = (),
        trend: str = "auto",
        maxiter: int = 200,
        gls_iterations: int = 2,
        label: str = "",
    ) -> None:
        self._arima = Arima(order, seasonal=seasonal, trend=trend, maxiter=maxiter)
        if len(fourier_periods) != len(fourier_orders):
            raise ModelError("fourier_periods and fourier_orders must align")
        self.fourier_periods = tuple(float(p) for p in fourier_periods)
        self.fourier_orders = tuple(int(k) for k in fourier_orders)
        if gls_iterations < 0:
            raise ModelError("gls_iterations must be >= 0")
        self.gls_iterations = gls_iterations
        self.label_override = label

    @property
    def order(self) -> ArimaOrder:
        return self._arima.order

    @property
    def seasonal(self) -> SeasonalOrder:
        return self._arima.seasonal

    @property
    def min_observations(self) -> int:
        return self._arima.min_observations

    # ------------------------------------------------------------------
    def fit(
        self,
        series: TimeSeries,
        exog: np.ndarray | None = None,
        start_params=None,
        **kwargs,
    ) -> FittedSarimax:
        """Estimate on ``series`` with optional shock regressors ``exog``.

        ``exog`` rows align one-to-one with the training series; columns are
        typically 0/1 indicators for scheduled events (backups, batch jobs).
        ``start_params`` warm-starts the inner ARMA optimiser exactly as in
        :meth:`repro.models.arima.Arima.fit` (β is always re-estimated).
        """
        if kwargs:
            raise ModelError(f"unexpected fit options: {sorted(kwargs)}")
        y = check_series(series, self.min_observations)
        n = y.size

        blocks: list[np.ndarray] = []
        X_exog = None
        if exog is not None:
            X_exog = _as_matrix(exog, n, "exog")
            if X_exog.shape[1] == 0:
                # An empty shock calendar produces a 0-column matrix;
                # treat it as "no exogenous regressors".
                X_exog = None
            else:
                blocks.append(X_exog)
        if self.fourier_periods:
            blocks.append(fourier_terms(n, list(self.fourier_periods), list(self.fourier_orders)))
        X = np.hstack(blocks) if blocks else np.empty((n, 0))

        if X.shape[1]:
            rank = np.linalg.matrix_rank(X)
            if rank < X.shape[1]:
                raise ModelError(
                    f"regressor matrix is rank-deficient ({rank} < {X.shape[1]}); "
                    "drop collinear shock indicators or Fourier terms"
                )

        beta = self._ols(y, X)
        inner = None
        for iteration in range(max(1, self.gls_iterations + 1)):
            z = y - X @ beta
            inner = self._arima._fit_adjusted(
                series, z, family="SARIMAX", start_params=start_params
            )
            if X.shape[1] == 0 or iteration == self.gls_iterations:
                break
            beta = self._gls_beta(y, X, inner)

        fitted = FittedSarimax(
            train=series,
            residuals=inner.residuals,
            sigma2=inner.sigma2,
            n_params=inner.n_params + int(X.shape[1]),
            order=inner.order,
            seasonal=inner.seasonal,
            coeffs=inner.coeffs,
            intercept=inner.intercept,
            beta=beta,
            exog_columns=0 if X_exog is None else X_exog.shape[1],
            fourier_periods=self.fourier_periods,
            fourier_orders=self.fourier_orders,
            _label_override=self.label_override,
        )
        fitted._train_exog = X_exog
        fitted.warm_started = inner.warm_started
        return fitted

    @staticmethod
    def _ols(y: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Ridge-stabilised least squares with an internal intercept.

        The intercept column stops indicator regressors from absorbing the
        series mean (the ARMA part models the level); its coefficient is
        discarded. The tiny scale-aware ridge matters for one specific
        degeneracy: a shock indicator that is perfectly periodic at the
        seasonal-difference period is annihilated by the whitening filter,
        leaving a ≈0 column whose OLS coefficient would be arbitrary noise.
        The ridge shrinks such unidentified coefficients to zero, letting
        the seasonal component absorb the shock instead — the numerically
        sane resolution of an inherently unidentifiable split.
        """
        if X.shape[1] == 0:
            return np.empty(0)
        n, k = X.shape
        X_full = np.column_stack([np.ones(n), X])
        scale = max(float(np.mean(np.sum(X_full**2, axis=0))), 1.0)
        lam = 1e-6 * scale
        augmented_X = np.vstack([X_full, np.sqrt(lam) * np.eye(k + 1)])
        augmented_y = np.concatenate([y, np.zeros(k + 1)])
        beta, *_ = np.linalg.lstsq(augmented_X, augmented_y, rcond=None)
        return beta[1:]

    def _gls_beta(self, y: np.ndarray, X: np.ndarray, inner: FittedArima) -> np.ndarray:
        """Feasible-GLS β: whiten both sides with the fitted ARMA filter."""
        spec = inner._spec()
        ar_full, ma_full = _polys(spec, inner.coeffs)
        diff = difference_poly(inner.order.d, inner.seasonal.D, inner.seasonal.F)
        whiten = polymul(ar_full, diff)
        y_w = signal.lfilter(whiten, ma_full, y)
        X_w = signal.lfilter(whiten, ma_full, X, axis=0)
        skip = min(whiten.size - 1 + _warmup(spec), y.size // 3)
        return self._ols(y_w[skip:], X_w[skip:])
