"""ARIMA / SARIMA estimation by conditional sum of squares (CSS).

This is the library's workhorse estimator, reproducing the paper's ARIMA
branch (Section 4.1). The model is

    φ(B) Φ(B^s) (1−B)^d (1−B^s)^D (y_t − μ·t-terms) = θ(B) Θ(B^s) a_t

Estimation minimises the conditional sum of squared one-step residuals.
With the lag-polynomial conventions of :mod:`repro.models.polynomials` the
residual sequence is a single ``scipy.signal.lfilter`` call, so evaluating
one candidate model is cheap enough to grid-search hundreds of orders as
the paper does (Section 6.3). Key implementation notes:

* Parameters are initialised by a Hannan–Rissanen two-stage regression and
  refined with L-BFGS-B (Nelder–Mead fallback).
* Stationarity/invertibility is enforced with a smooth penalty on lag
  polynomials whose roots approach the unit circle.
* Forecast error bars use the ψ-weights of the fully expanded
  (differencing included) transfer function: ``Var(h) = σ² Σ_{j<h} ψ_j²``.

We use CSS rather than exact Kalman-filter MLE: it is the standard fast
choice for order *selection* (R's ``arima`` uses CSS to initialise ML) and
the RMSE ranking the pipeline needs is insensitive to the difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize, signal

from ..core.stationarity import difference
from ..core.stats import band_z
from ..core.timeseries import TimeSeries
from ..exceptions import ConvergenceError, ModelError
from . import kernels
from .base import FittedModel, Forecast, ForecastModel, check_series
from .polynomials import (
    ar_poly,
    difference_poly,
    ma_poly,
    min_root_modulus,
    polymul,
    psi_weights,
    seasonal_expand,
)

__all__ = ["ArimaOrder", "SeasonalOrder", "Arima", "FittedArima", "forecast_cohort_arrays"]

_STABILITY_MARGIN = 1.0 + 1e-4
_PENALTY = 1e8


@dataclass(frozen=True, order=True)
class ArimaOrder:
    """Non-seasonal order ``(p, d, q)``."""

    p: int
    d: int
    q: int

    def __post_init__(self) -> None:
        if min(self.p, self.d, self.q) < 0:
            raise ModelError(f"orders must be non-negative, got {self}")
        if self.d > 2:
            raise ModelError("d > 2 is never useful for workload data (paper Section 4.1)")

    def __str__(self) -> str:
        return f"({self.p},{self.d},{self.q})"


@dataclass(frozen=True, order=True)
class SeasonalOrder:
    """Seasonal order ``(P, D, Q, F)`` where ``F`` is the seasonal period."""

    P: int
    D: int
    Q: int
    F: int

    def __post_init__(self) -> None:
        if min(self.P, self.D, self.Q) < 0:
            raise ModelError(f"seasonal orders must be non-negative, got {self}")
        if self.D > 2:
            raise ModelError("seasonal D > 2 is not supported (paper: 'usually not greater than 2')")
        if (self.P or self.D or self.Q) and self.F < 2:
            raise ModelError(f"a seasonal component needs period F >= 2, got F={self.F}")

    @property
    def is_null(self) -> bool:
        return self.P == 0 and self.D == 0 and self.Q == 0

    def __str__(self) -> str:
        return f"({self.P},{self.D},{self.Q},{self.F})"


_NULL_SEASONAL = SeasonalOrder(0, 0, 0, 1)


# ---------------------------------------------------------------------------
# Parameter packing
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _Spec:
    """Internal estimation spec resolved from order + seasonal order."""

    order: ArimaOrder
    seasonal: SeasonalOrder
    with_intercept: bool

    @property
    def n_coeffs(self) -> int:
        return self.order.p + self.order.q + self.seasonal.P + self.seasonal.Q

    def unpack(self, params: np.ndarray):
        p, q = self.order.p, self.order.q
        P, Q = self.seasonal.P, self.seasonal.Q
        i = 0
        phi = params[i : i + p]
        i += p
        theta = params[i : i + q]
        i += q
        Phi = params[i : i + P]
        i += P
        Theta = params[i : i + Q]
        return phi, theta, Phi, Theta


def _polys(spec: _Spec, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    phi, theta, Phi, Theta = spec.unpack(params)
    s = spec.seasonal.F
    ar_full = polymul(ar_poly(phi), seasonal_expand(ar_poly(Phi), s))
    ma_full = polymul(ma_poly(theta), seasonal_expand(ma_poly(Theta), s))
    return ar_full, ma_full


def _stability_violation(spec: _Spec, params: np.ndarray) -> float:
    """Positive when any lag polynomial root is inside the stability margin."""
    phi, theta, Phi, Theta = spec.unpack(params)
    worst = 0.0
    for coeffs, kind in ((phi, "ar"), (theta, "ma"), (Phi, "ar"), (Theta, "ma")):
        if coeffs.size == 0:
            continue
        # Fast sufficient condition: if Σ|c_i| < 1 the polynomial cannot
        # vanish on the closed unit disk, so the root check can be skipped.
        # This avoids an eigenvalue solve per objective call for the large-p
        # models of the paper's grids.
        if np.sum(np.abs(coeffs)) <= 0.97:
            continue
        poly = ar_poly(coeffs) if kind == "ar" else ma_poly(coeffs)
        modulus = min_root_modulus(poly)
        if modulus < _STABILITY_MARGIN:
            worst = max(worst, _STABILITY_MARGIN - modulus)
    return worst


@dataclass(eq=False)
class _LagPolynomials:
    """The expanded lag polynomials of one frozen coefficient set.

    ``ar_full``/``ma_full`` are the seasonal-expanded ARMA polynomials and
    ``full_ar`` folds the differencing factors in. ``psi`` is the longest
    ψ-weight vector computed so far: the recursion is prefix-stable, so a
    shorter horizon slices it bit-identically and only a longer one pays
    the Python recursion again.
    """

    coeffs: np.ndarray
    ar_full: np.ndarray
    ma_full: np.ndarray
    full_ar: np.ndarray
    psi: np.ndarray = field(default_factory=lambda: np.empty(0))

    def psi_weights(self, n: int) -> np.ndarray:
        psi = self.psi
        if psi.size < n:
            psi = psi_weights(self.full_ar, self.ma_full, n)
            self.psi = psi
        return psi[:n]


@dataclass(eq=False)
class _RollState:
    """The forecast origin of one training series, in O(L + q) numbers.

    ``tail`` holds the last L regression-adjusted values (L is the degree
    of ``full_ar``; its last ``d + D·F`` entries are the differencing
    tail), ``recent_e`` the last q innovations of the CSS filter and
    ``zf`` ``lfilter``'s final state after the whole series. New
    observations continue the filter where the whole-series pass left
    it, which reproduces that pass bit for bit: differencing is
    elementwise and ``lfilter`` fed in chunks through ``zi`` runs the
    same recurrence. ``train``, ``lags`` and ``intercept`` record what
    the state was built from, so a model whose series or coefficients
    were reassigned rebuilds it; ``c_star`` is the constant term on the
    undifferenced scale, φ(1)Φ(1)·μ.
    """

    train: TimeSeries
    lags: _LagPolynomials
    intercept: float
    tail: np.ndarray
    recent_e: np.ndarray
    zf: np.ndarray

    @property
    def c_star(self) -> float:
        return float(np.sum(self.lags.ar_full)) * self.intercept


def _css_residuals(w: np.ndarray, spec: _Spec, params: np.ndarray) -> np.ndarray:
    ar_full, ma_full = _polys(spec, params)
    return signal.lfilter(ar_full, ma_full, w)


def _warmup(spec: _Spec) -> int:
    return spec.order.p + spec.seasonal.P * spec.seasonal.F


def _observations(values) -> np.ndarray:
    """Validate a roll's new observations as a non-empty finite 1-D array."""
    raw = np.ascontiguousarray(values, dtype=float)
    if raw.ndim != 1 or raw.size == 0:
        raise ModelError("advance needs a non-empty 1-D batch of observations")
    if not np.all(np.isfinite(raw)):
        raise ModelError("cannot roll an ARIMA origin through non-finite observations")
    return raw


def _objective(params: np.ndarray, w: np.ndarray, spec: _Spec) -> float:
    violation = _stability_violation(spec, params)
    if violation > 0:
        return _PENALTY * (1.0 + violation)
    e = _css_residuals(w, spec, params)
    skip = min(_warmup(spec), w.size // 3)
    e = e[skip:]
    css = float(e @ e)
    if not np.isfinite(css):
        return _PENALTY
    return css


def _hannan_rissanen(w: np.ndarray, spec: _Spec) -> np.ndarray:
    """Two-stage Hannan–Rissanen starting values (seasonal lags included)."""
    p, q = spec.order.p, spec.order.q
    P, Q = spec.seasonal.P, spec.seasonal.Q
    s = spec.seasonal.F
    n_coeffs = spec.n_coeffs
    if n_coeffs == 0:
        return np.empty(0)
    n = w.size
    # Stage 1: long-AR residual proxy.
    long_order = min(max(20, 2 * (p + q), s + 2 if (P or Q) else 0), max(1, n // 4))
    if n <= long_order + 2:
        return np.full(n_coeffs, 0.05)
    rows = n - long_order
    X1 = np.column_stack([w[long_order - k : n - k] for k in range(1, long_order + 1)])
    y1 = w[long_order:]
    beta1, *_ = np.linalg.lstsq(X1, y1, rcond=None)
    e_hat = np.zeros(n)
    e_hat[long_order:] = y1 - X1 @ beta1
    # Stage 2: regress w on its own lags and residual lags.
    max_lag = max(
        [p] + [q] + ([s * P] if P else [0]) + ([s * Q] if Q else [0])
    )
    if max_lag == 0 or n <= max_lag + 4:
        return np.full(n_coeffs, 0.05)
    rows = n - max_lag
    cols: list[np.ndarray] = []
    for k in range(1, p + 1):
        cols.append(w[max_lag - k : n - k])
    for k in range(1, q + 1):
        cols.append(e_hat[max_lag - k : n - k])
    for k in range(1, P + 1):
        cols.append(w[max_lag - s * k : n - s * k])
    for k in range(1, Q + 1):
        cols.append(e_hat[max_lag - s * k : n - s * k])
    X2 = np.column_stack(cols)
    y2 = w[max_lag:]
    try:
        beta2, *_ = np.linalg.lstsq(X2, y2, rcond=None)
    except np.linalg.LinAlgError:
        return np.full(n_coeffs, 0.05)
    # Reorder into (phi, theta, Phi, Theta) packing.
    phi = beta2[:p]
    theta = beta2[p : p + q]
    Phi = beta2[p + q : p + q + P]
    Theta = beta2[p + q + P :]
    init = np.concatenate([phi, theta, Phi, Theta])
    init = np.nan_to_num(init, nan=0.05, posinf=0.5, neginf=-0.5)
    # Shrink toward zero until inside the stability region.
    for __ in range(40):
        if _stability_violation(spec, init) == 0:
            break
        init *= 0.8
    else:
        init = np.full(n_coeffs, 0.02)
    return init


@dataclass
class FittedArima(FittedModel):
    """A CSS-fitted (S)ARIMA model ready to forecast."""

    order: ArimaOrder = field(default=None)
    seasonal: SeasonalOrder = field(default=None)
    coeffs: np.ndarray = field(default=None, repr=False)
    intercept: float = 0.0
    _family: str = "ARIMA"

    # Set by Arima._fit_adjusted (unannotated on purpose: a class
    # attribute, not a dataclass field): True when the optimiser started
    # from caller-supplied parameters instead of Hannan–Rissanen.
    warm_started = False
    # Lag polynomials of ``coeffs``, built on first use and carried
    # through ``advance`` (coefficients are frozen between refits).
    # Unannotated for the same reason: it stays out of repr and equality,
    # and a refit's fresh instance starts without one.
    _lags = None
    # The O(1) rolled state of ``train`` (a ``_RollState``), built from
    # the whole series on first use and extended by each ``advance``.
    # Unannotated like ``_lags``.
    _state = None

    def label(self) -> str:
        if self.seasonal.is_null:
            return f"{self._family} {self.order}"
        return f"{self._family} {self.order}{self.seasonal}"

    # ------------------------------------------------------------------
    def _spec(self) -> _Spec:
        return _Spec(self.order, self.seasonal, self.intercept != 0.0)

    def _lag_polynomials(self) -> _LagPolynomials:
        """The lag polynomials of ``coeffs``, computed once per coefficient set."""
        lags = self._lags
        if lags is None or lags.coeffs is not self.coeffs:
            ar_full, ma_full = _polys(self._spec(), self.coeffs)
            diff = difference_poly(self.order.d, self.seasonal.D, self.seasonal.F)
            lags = _LagPolynomials(self.coeffs, ar_full, ma_full, polymul(ar_full, diff))
            self._lags = lags
        return lags

    def _adjusted_train(self) -> np.ndarray:
        """The training values the ARMA part models (no regression here)."""
        return self.train.values

    def _roll_state(self) -> _RollState:
        """The rolled state of ``train``; one O(n) filter pass on first use."""
        lags = self._lag_polynomials()
        state = self._state
        if (
            state is None
            or state.train is not self.train
            or state.lags is not lags
            or state.intercept != self.intercept
        ):
            # The whole series is one roll from an empty origin.
            n_state = max(lags.ar_full.size, lags.ma_full.size) - 1
            empty = _RollState(
                self.train, lags, self.intercept, np.empty(0), np.empty(0), np.zeros(n_state)
            )
            state = self._extended_state(empty, self.train, self._adjusted_train())
            self._state = state
        return state

    def _band_std(self, lags: _LagPolynomials, horizon: int) -> np.ndarray:
        """ψ-weight forecast std: ``sqrt(σ² Σ_{j<h} ψ_j²)`` per step."""
        psi = lags.psi_weights(horizon)
        return np.sqrt(np.maximum(self.sigma2 * np.cumsum(psi**2), 0.0))

    def _forecast_adjusted(self, horizon: int) -> tuple[np.ndarray, np.ndarray]:
        """Forecast the regression-adjusted series from the rolled state (mean, std).

        Costs O(L + q + H): the difference equation iterates from the
        state's last L values and q innovations in the kernel (in-sample
        shocks contribute while j > h, i.e. while they are still visible).
        """
        if horizon <= 0:
            raise ModelError(f"horizon must be positive, got {horizon}")
        state = self._roll_state()
        lags = state.lags
        mean = kernels.arma_forecast(
            lags.full_ar, lags.ma_full, state.tail, state.recent_e, state.c_star, horizon
        )
        return mean, self._band_std(lags, horizon)

    def forecast(
        self,
        horizon: int,
        alpha: float = 0.05,
        intervals: str = "analytic",
        n_paths: int = 500,
    ) -> Forecast:
        """Forecast with error bars.

        Parameters
        ----------
        intervals:
            ``"analytic"`` (default) — Gaussian ψ-weight bands;
            ``"bootstrap"`` — residual-bootstrap simulation: future shocks
            are resampled from the in-sample residuals, so heavy-tailed or
            skewed workload noise (unabsorbed spikes) widens the band on
            the correct side instead of being squeezed into a symmetric
            normal.
        n_paths:
            Simulation paths for the bootstrap bands.
        """
        mean, std = self._forecast_adjusted(horizon)
        if intervals == "analytic":
            return self.make_forecast(mean, std, alpha)
        if intervals != "bootstrap":
            raise ModelError(f"intervals must be analytic or bootstrap, got {intervals!r}")
        lower, upper = self._bootstrap_band(mean, horizon, alpha, n_paths)
        return Forecast(
            mean=self._future_series(mean),
            lower=self._future_series(np.minimum(lower, mean)),
            upper=self._future_series(np.maximum(upper, mean)),
            alpha=alpha,
            model_label=self.label(),
        )

    def advance(self, values: np.ndarray) -> tuple["FittedArima", np.ndarray]:
        """Roll the forecast origin through new observations without refitting.

        The coefficients stay frozen; the rolled model's state continues
        the CSS filter through the new values in O(L + q + k), so neither
        this call nor the rolled model's next ``forecast`` re-filters the
        history. The rolled model forecasts exactly like a fresh fit
        object carrying the same coefficients on the extended ``train``.
        The returned innovations are the observed deviations from the
        pre-roll forecast rescaled to one-step-equivalents (``ψ``-weight
        std back to ``sqrt(sigma2)`` units, exact at step one since
        ``ψ₀ = 1``), so drift detectors can standardise them against
        ``sqrt(sigma2)`` like any other family's.
        """
        raw = _observations(values)
        return self._roll(raw, raw)

    def _roll(self, raw: np.ndarray, z_new: np.ndarray) -> tuple["FittedArima", np.ndarray]:
        """Extend ``train`` by ``raw`` and the state by its adjusted values ``z_new``."""
        state = self._roll_state()
        mean, std = self._forecast_adjusted(raw.size)
        sigma = float(np.sqrt(self.sigma2))
        with np.errstate(divide="ignore", invalid="ignore"):
            innovations = np.where(std > 0, (z_new - mean) * (sigma / std), z_new - mean)
        step = self.train.frequency.seconds
        extension = TimeSeries(
            values=raw,
            frequency=self.train.frequency,
            start=self.train.end + step,
            name=self.train.name,
        )
        rolled = replace(
            self,
            train=self.train.append(extension),
            residuals=np.concatenate([self.residuals, innovations]),
        )
        rolled._lags = state.lags
        rolled._state = self._extended_state(state, rolled.train, z_new)
        return rolled, innovations

    def _extended_state(
        self, state: _RollState, train: TimeSeries, z_new: np.ndarray
    ) -> _RollState:
        """``state`` continued through the adjusted values ``z_new``."""
        lags = state.lags
        d, D, F = self.order.d, self.seasonal.D, self.seasonal.F
        n_diff = d + D * F
        head = state.tail[state.tail.size - n_diff :] if n_diff else np.empty(0)
        w_new = difference(np.concatenate([head, z_new]), d, D, F)
        e_new, zf = signal.lfilter(
            lags.ar_full, lags.ma_full, w_new - state.intercept, zi=state.zf
        )
        L = lags.full_ar.size - 1
        q = lags.ma_full.size - 1
        return _RollState(
            train=train,
            lags=lags,
            intercept=state.intercept,
            tail=np.concatenate([state.tail, z_new])[-L:] if L else state.tail,
            recent_e=np.concatenate([state.recent_e, e_new])[-q:] if q else state.recent_e,
            zf=zf,
        )

    def _bootstrap_band(
        self, mean: np.ndarray, horizon: int, alpha: float, n_paths: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Residual-bootstrap quantile band around the point forecast.

        Future paths are ``mean + Σ ψ_j e*`` with shocks ``e*`` resampled
        (centred) from the usable in-sample residuals; the band is the
        empirical quantile envelope. Deterministic given the fitted model.
        """
        if n_paths < 50:
            raise ModelError("bootstrap intervals need at least 50 paths")
        psi = self._lag_polynomials().psi_weights(horizon)

        skip = min(_warmup(self._spec()), len(self.train) // 3)
        pool = self.residuals[skip:]
        pool = pool[np.isfinite(pool)]
        if pool.size < 10:
            raise ModelError("too few residuals for bootstrap intervals")
        pool = pool - pool.mean()

        rng = np.random.default_rng(20200614)  # fixed: reproducible bands
        shocks = rng.choice(pool, size=(n_paths, horizon), replace=True)
        # Cumulative shock effect: deviation_h = Σ_j ψ_j e_{h-j}, computed
        # for every path at once as one causal-convolution matrix product.
        deviations = kernels.bootstrap_deviations(psi, shocks)
        lower = mean + np.quantile(deviations, alpha / 2.0, axis=0)
        upper = mean + np.quantile(deviations, 1.0 - alpha / 2.0, axis=0)
        return lower, upper


def forecast_cohort_arrays(
    models: list[FittedArima], horizon: int, alpha: float = 0.05
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forecast a same-order ARIMA cohort as stacked ``(B, horizon)`` bands.

    Returns ``(mean, lower, upper)`` — row ``i`` bit-identical to
    ``models[i].forecast(horizon, alpha)``'s band values: the point
    forecasts iterate each row's rolled state in one
    :func:`~repro.models.kernels.arma_forecast_batch` call and the std is
    each row's ψ-weight sum. Every model must be a plain
    :class:`FittedArima` of one (order, seasonal order); regression fits
    forecast one at a time. The caller owns timestamps (each row's
    forecast starts one step after its model's training end).
    """
    if horizon <= 0:
        raise ModelError(f"horizon must be positive, got {horizon}")
    if not models:
        raise ModelError("an ARIMA cohort needs at least one model")
    order, seasonal = models[0].order, models[0].seasonal
    for model in models:
        if type(model) is not FittedArima:
            raise ModelError(f"{type(model).__name__} cannot join an ARIMA cohort")
        if model.order != order or model.seasonal != seasonal:
            raise ModelError("an ARIMA cohort must share one (order, seasonal order)")
    states = [model._roll_state() for model in models]
    mean = kernels.arma_forecast_batch(
        np.stack([state.lags.full_ar for state in states]),
        np.stack([state.lags.ma_full for state in states]),
        np.stack([state.tail for state in states]),
        np.stack([state.recent_e for state in states]),
        np.array([state.c_star for state in states]),
        horizon,
    )
    std = np.stack([model._band_std(state.lags, horizon) for model, state in zip(models, states)])
    if np.any(std < 0):
        raise ModelError("negative forecast standard deviation")
    z = band_z(alpha)
    return mean, mean - z * std, mean + z * std


class Arima(ForecastModel):
    """ARIMA/SARIMA specification, estimated by CSS when ``fit`` is called.

    Parameters
    ----------
    order:
        Non-seasonal ``(p, d, q)``; accepts an :class:`ArimaOrder` or tuple.
    seasonal:
        Optional seasonal ``(P, D, Q, F)``; accepts :class:`SeasonalOrder`
        or tuple. Omit (or pass ``None``) for plain ARIMA.
    trend:
        ``"auto"`` adds an intercept only when no differencing is applied
        (the paper's models with d=1 carry no drift term); ``"c"`` forces
        an intercept on the differenced scale (a drift); ``"n"`` disables it.
    maxiter:
        Optimiser iteration cap; the grid-search path lowers this for speed.
    method:
        ``"css"`` (default) — conditional sum of squares, the grid-search
        workhorse; ``"mle"`` — exact Gaussian maximum likelihood via the
        Kalman filter (:mod:`repro.models.kalman`), warm-started from the
        CSS solution. MLE matters most for short series and strong MA
        components; it is supported for non-seasonal models (the seasonal
        state space would be ``F × P`` dimensional and is not worth it
        for order selection).
    """

    def __init__(
        self,
        order: ArimaOrder | tuple[int, int, int],
        seasonal: SeasonalOrder | tuple[int, int, int, int] | None = None,
        trend: str = "auto",
        maxiter: int = 200,
        method: str = "css",
    ) -> None:
        self.order = order if isinstance(order, ArimaOrder) else ArimaOrder(*order)
        if seasonal is None:
            self.seasonal = _NULL_SEASONAL
        elif isinstance(seasonal, SeasonalOrder):
            self.seasonal = seasonal
        else:
            self.seasonal = SeasonalOrder(*seasonal)
        if trend not in ("auto", "c", "n"):
            raise ModelError(f"trend must be auto/c/n, got {trend!r}")
        if method not in ("css", "mle"):
            raise ModelError(f"method must be css or mle, got {method!r}")
        if method == "mle" and not self.seasonal.is_null:
            raise ModelError("method='mle' supports non-seasonal models only")
        self.trend = trend
        self.maxiter = maxiter
        self.method = method

    @property
    def min_observations(self) -> int:
        base = _warmup(_Spec(self.order, self.seasonal, False))
        diff_len = self.order.d + self.seasonal.D * self.seasonal.F
        return max(10, 3 * (base + self.order.q + self.seasonal.Q * self.seasonal.F) // 2 + diff_len + 5)

    def _wants_intercept(self) -> bool:
        if self.trend == "c":
            return True
        if self.trend == "n":
            return False
        return self.order.d + self.seasonal.D == 0

    # ------------------------------------------------------------------
    def fit(self, series: TimeSeries, start_params=None, **kwargs) -> FittedArima:
        """Estimate on ``series``.

        ``start_params`` optionally warm-starts the optimiser with the
        packed ``(phi, theta, Phi, Theta)`` coefficients of a previous
        fit of the *same* order (e.g. a low-budget racing rung). ARMA
        coefficients are scale-invariant, so parameters fitted on the
        same data at a smaller ``maxiter`` are a valid starting point.
        Invalid values (wrong length, non-finite, outside the stability
        region) are silently rejected in favour of the usual
        Hannan–Rissanen initialisation; ``fitted.warm_started`` records
        which path was taken.
        """
        if kwargs:
            raise ModelError(f"unexpected fit options: {sorted(kwargs)}")
        y = check_series(series, self.min_observations)
        return self._fit_adjusted(
            series,
            y,
            family="ARIMA" if self.seasonal.is_null else "SARIMAX",
            start_params=start_params,
        )

    def _warm_start_init(self, spec: _Spec, start_params) -> np.ndarray | None:
        """Validate caller-supplied starting parameters; None when unusable."""
        if start_params is None:
            return None
        candidate = np.asarray(start_params, dtype=float)
        if candidate.shape != (spec.n_coeffs,):
            return None
        if not np.all(np.isfinite(candidate)):
            return None
        if _stability_violation(spec, candidate) > 0:
            return None
        return candidate

    def _fit_adjusted(
        self, series: TimeSeries, z: np.ndarray, family: str, start_params=None
    ) -> FittedArima:
        """Fit the (S)ARIMA process to an (already regression-adjusted) array."""
        w = difference(z, self.order.d, self.seasonal.D, self.seasonal.F)
        intercept = float(np.mean(w)) if self._wants_intercept() else 0.0
        w_c = w - intercept

        scale = float(np.std(w_c))
        trivial = scale < 1e-12
        spec = _Spec(self.order, self.seasonal, intercept != 0.0)
        warm_started = False
        if spec.n_coeffs == 0 or trivial:
            coeffs = np.zeros(spec.n_coeffs)
            e = w_c.copy()
        else:
            w_s = w_c / scale
            init = self._warm_start_init(spec, start_params)
            warm_started = init is not None
            if init is None:
                init = _hannan_rissanen(w_s, spec)
            result = optimize.minimize(
                _objective,
                init,
                args=(w_s, spec),
                method="L-BFGS-B",
                options={"maxiter": self.maxiter, "ftol": 1e-10},
            )
            best_x, best_f = result.x, float(result.fun)
            if (not result.success and best_f >= _PENALTY) or not np.isfinite(best_f):
                fallback = optimize.minimize(
                    _objective,
                    init,
                    args=(w_s, spec),
                    method="Nelder-Mead",
                    options={"maxiter": 400 + 80 * spec.n_coeffs, "fatol": 1e-10},
                )
                if float(fallback.fun) < best_f:
                    best_x, best_f = fallback.x, float(fallback.fun)
            if best_f >= _PENALTY:
                raise ConvergenceError(
                    f"CSS optimisation found no stable parameters for {self.order}{self.seasonal}"
                )
            coeffs = best_x
            if self.method == "mle":
                # Refine the CSS solution with the exact likelihood.
                from .kalman import fit_arma_mle

                p, q = self.order.p, self.order.q
                mle = fit_arma_mle(
                    w_s,
                    p,
                    q,
                    start_phi=coeffs[:p],
                    start_theta=coeffs[p : p + q],
                    maxiter=self.maxiter,
                )
                coeffs = np.concatenate([mle.phi, mle.theta])
            e = _css_residuals(w_s, spec, coeffs) * scale

        skip = min(_warmup(spec), w.size // 3)
        used = e[skip:]
        n_params = spec.n_coeffs + (1 if intercept != 0.0 else 0) + 1  # + sigma2
        dof = max(1, used.size - n_params)
        sigma2 = float(used @ used) / dof

        fitted = FittedArima(
            train=series,
            residuals=e,
            sigma2=sigma2,
            n_params=n_params,
            order=self.order,
            seasonal=self.seasonal,
            coeffs=np.asarray(coeffs, dtype=float),
            intercept=intercept,
            _family=family,
        )
        fitted.warm_started = warm_started
        return fitted
