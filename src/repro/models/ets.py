"""Exponential smoothing models: SES, Holt's linear trend and Holt–Winters.

Section 4.3 of the paper presents exponential smoothing as "the other side
of the coin" from ARIMA: recent observations get exponentially more weight,
which suits workloads with drift or without stable autocorrelation
structure. The pipeline's HES branch (Figure 4) uses the Holt–Winters
seasonal method; SES and Holt are provided both as building blocks and as
baselines.

All three share one recursion engine with additive or multiplicative
seasonality and optional damped trend. Smoothing parameters are estimated
by minimising the in-sample one-step sum of squared errors with L-BFGS-B.
Prediction intervals use the standard analytic variance expressions for the
additive cases (Hyndman et al., *Forecasting: Principles & Practice*) and a
residual-bootstrap simulation for multiplicative seasonality, where no
closed form exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize

from ..core.stats import band_z
from ..core.timeseries import TimeSeries
from ..exceptions import ConvergenceError, ModelError
from . import kernels
from .base import FittedModel, Forecast, ForecastModel, check_series

__all__ = [
    "SimpleExpSmoothing",
    "Holt",
    "HoltWinters",
    "FittedExpSmoothing",
    "advance_cohort",
    "forecast_cohort_arrays",
]

_BOUND = (1e-4, 0.9999)
_PHI_BOUND = (0.8, 0.998)

#: Seasonal component encoding used by the compiled recursion kernel.
_SEASONAL_MODE = {None: 0, "add": 1, "mul": 2}


@dataclass(frozen=True)
class _EtsSpec:
    """Which components the smoothing model carries."""

    trend: bool
    damped: bool
    seasonal: str | None  # None | "add" | "mul"
    period: int

    def n_smoothing_params(self) -> int:
        n = 1  # alpha
        if self.trend:
            n += 1  # beta
            if self.damped:
                n += 1  # phi
        if self.seasonal:
            n += 1  # gamma
        return n


def _run_recursion(
    y: np.ndarray,
    spec: _EtsSpec,
    alpha: float,
    beta: float,
    gamma: float,
    phi: float,
    level0: float,
    trend0: float,
    seasonal0: np.ndarray,
):
    """One pass of the smoothing recursion; returns (errors, final state).

    The recursion follows the standard error-correction form; seasonal
    indices rotate through a length-``period`` buffer. The per-timestep
    loop lives in :func:`repro.models.kernels.ets_recursion` (this is the
    hot path of the L-BFGS objective, run hundreds of times per fit).
    """
    return kernels.ets_recursion(
        y,
        spec.trend,
        _SEASONAL_MODE[spec.seasonal],
        spec.period,
        alpha,
        beta,
        gamma,
        phi,
        level0,
        trend0,
        seasonal0,
    )


def _initial_state(y: np.ndarray, spec: _EtsSpec) -> tuple[float, float, np.ndarray]:
    """Heuristic initial level/trend/seasonal state (Hyndman-style)."""
    m = spec.period
    if spec.seasonal:
        first = y[:m]
        level0 = float(first.mean())
        if spec.trend and y.size >= 2 * m:
            second = y[m : 2 * m]
            trend0 = float((second.mean() - first.mean()) / m)
        else:
            trend0 = 0.0
        if spec.seasonal == "add":
            seasonal0 = first - level0
        else:
            base = level0 if abs(level0) > 1e-12 else 1e-12
            seasonal0 = first / base
    else:
        level0 = float(y[0])
        trend0 = float(y[1] - y[0]) if spec.trend and y.size > 1 else 0.0
        seasonal0 = np.zeros(max(m, 1)) if spec.seasonal != "mul" else np.ones(max(m, 1))
    return level0, trend0, np.asarray(seasonal0, dtype=float)


@dataclass
class FittedExpSmoothing(FittedModel):
    """A fitted exponential-smoothing model (SES / Holt / Holt–Winters)."""

    spec: _EtsSpec = field(default=None)
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    phi: float = 1.0
    level: float = 0.0
    trend: float = 0.0
    seasonal_state: np.ndarray = field(default=None, repr=False)
    family: str = "HES"

    def label(self) -> str:
        return self.family

    def _damp_sums(self, horizon: int) -> np.ndarray:
        """Geometric trend multipliers ``sum(phi**i, i=1..h)`` for h=1..horizon.

        One cumulative sum instead of the former O(horizon²) nested
        accumulation; the cumsum adds terms in the same order the nested
        sums did, so results agree to the last ulp.
        """
        if not self.spec.damped:
            return np.arange(1, horizon + 1, dtype=float)
        return np.cumsum(self.phi ** np.arange(1, horizon + 1, dtype=float))

    def _point_forecast(self, horizon: int) -> np.ndarray:
        m = self.spec.period
        if self.spec.trend:
            out = self.level + self._damp_sums(horizon) * self.trend
        else:
            out = np.full(horizon, self.level)
        if self.spec.seasonal:
            # Seasonal buffer index continuing the training rotation.
            s_idx = (len(self.train) + np.arange(horizon)) % m
            if self.spec.seasonal == "add":
                out = out + self.seasonal_state[s_idx]
            else:
                out = out * self.seasonal_state[s_idx]
        return np.asarray(out, dtype=float)

    def _forecast_std(self, horizon: int) -> np.ndarray:
        """Forecast standard deviations.

        Additive models use the closed-form cumulative-variance expressions;
        multiplicative seasonality falls back to a fixed-seed Gaussian
        simulation through the recursion (500 paths).
        """
        sigma = np.sqrt(self.sigma2)
        m = self.spec.period
        if self.spec.seasonal != "mul":
            # c_j coefficients for j = 1..horizon, built in one vector pass
            # (the damped-trend multipliers come from the cumulative
            # geometric sum, not the former per-h nested accumulation).
            c = np.full(horizon, self.alpha)
            if self.spec.trend:
                c = c + self.alpha * self.beta * self._damp_sums(horizon)
            if self.spec.seasonal == "add" and m > 1:
                c = np.where(
                    np.arange(1, horizon + 1) % m == 0,
                    c + self.gamma * (1 - self.alpha),
                    c,
                )
            # var_h = sigma2 * (1 + sum_{j<h} c_j^2): the accumulator lags
            # one step, hence the leading zero.
            acc = np.concatenate(([0.0], np.cumsum(c[:-1] ** 2)))
            return np.sqrt(self.sigma2 * (1.0 + acc))
        # Multiplicative: simulate through the recursion kernel, all paths
        # at once. The shocks are pre-drawn as one (paths, horizon) matrix,
        # which walks the generator in exactly the order the former nested
        # loop did — simulated paths are bit-identical.
        rng = np.random.default_rng(1234)
        n_paths = 500
        shocks = rng.normal(0.0, sigma, size=(n_paths, horizon))
        sims = kernels.ets_mul_paths(
            self.level,
            self.trend,
            self.seasonal_state,
            self.alpha,
            self.beta,
            self.gamma,
            self.phi,
            self.spec.trend,
            m,
            len(self.train),
            shocks,
        )
        return sims.std(axis=0)

    def forecast(self, horizon: int, alpha: float = 0.05) -> Forecast:
        if horizon <= 0:
            raise ModelError(f"horizon must be positive, got {horizon}")
        mean = self._point_forecast(horizon)
        std = self._forecast_std(horizon)
        return self.make_forecast(mean, std, alpha)

    def advance(self, values: np.ndarray) -> tuple["FittedExpSmoothing", np.ndarray]:
        """Roll the fitted state through new observations without refitting.

        Continues the level/trend/seasonal recursion over ``values`` from
        the stored final state — exactly the updates a full refit's
        recursion would apply over the concatenated series, so the rolled
        state (and therefore every subsequent forecast) is bit-identical
        to the tail of one long recursion. The smoothing parameters and
        ``sigma2`` stay frozen at their fitted values; the forecast
        origin moves to the end of the extended series.

        Returns ``(rolled model, one-step innovations)``; the innovations
        are in observation units (the same units as ``sqrt(sigma2)``),
        which is what drift detectors standardise against.
        """
        rolled, innovations = advance_cohort([self], np.asarray(values, dtype=float)[None, :])
        return rolled[0], innovations[0]


class _EtsBase(ForecastModel):
    """Shared fitting machinery for the smoothing family."""

    _family = "HES"

    def _spec(self) -> _EtsSpec:
        raise NotImplementedError

    def _fixed_params(self) -> dict[str, float]:
        return {}

    @property
    def min_observations(self) -> int:
        spec = self._spec()
        if spec.seasonal:
            return 2 * spec.period + 1
        return 4

    def fit(self, series: TimeSeries, **kwargs) -> FittedExpSmoothing:
        if kwargs:
            raise ModelError(f"unexpected fit options: {sorted(kwargs)}")
        spec = self._spec()
        y = check_series(series, self.min_observations)
        level0, trend0, seasonal0 = _initial_state(y, spec)
        fixed = self._fixed_params()

        names = ["alpha"]
        if spec.trend:
            names.append("beta")
            if spec.damped:
                names.append("phi")
        if spec.seasonal:
            names.append("gamma")
        free = [n for n in names if n not in fixed]

        defaults = {"alpha": 0.3, "beta": 0.1, "gamma": 0.1, "phi": 0.97}

        def unpack(x: np.ndarray) -> dict[str, float]:
            params = dict(defaults)
            params.update(fixed)
            for name, value in zip(free, x):
                params[name] = float(value)
            if not spec.trend:
                params["beta"] = 0.0
                params["phi"] = 1.0
            elif not spec.damped:
                params["phi"] = 1.0
            if not spec.seasonal:
                params["gamma"] = 0.0
            return params

        def objective(x: np.ndarray) -> float:
            p = unpack(x)
            errors, *_ = _run_recursion(
                y, spec, p["alpha"], p["beta"], p["gamma"], p["phi"], level0, trend0, seasonal0
            )
            sse = float(errors @ errors)
            return sse if np.isfinite(sse) else 1e12

        if free:
            x0 = np.array([defaults[n] if n != "phi" else 0.97 for n in free])
            bounds = [(_PHI_BOUND if n == "phi" else _BOUND) for n in free]
            result = optimize.minimize(
                objective, x0, method="L-BFGS-B", bounds=bounds, options={"maxiter": 200}
            )
            if not np.isfinite(result.fun):
                raise ConvergenceError(f"{self._family} optimisation diverged")
            x_best = result.x
        else:
            x_best = np.empty(0)

        p = unpack(x_best)
        errors, level, trend, seas = _run_recursion(
            y, spec, p["alpha"], p["beta"], p["gamma"], p["phi"], level0, trend0, seasonal0
        )
        skip = spec.period if spec.seasonal else 1
        used = errors[skip:] if errors.size > skip else errors
        n_params = len(free) + 2 + (spec.period if spec.seasonal else 0)
        dof = max(1, used.size - len(free) - 1)
        sigma2 = float(used @ used) / dof
        return FittedExpSmoothing(
            train=series,
            residuals=errors,
            sigma2=sigma2,
            n_params=n_params,
            spec=spec,
            alpha=p["alpha"],
            beta=p["beta"],
            gamma=p["gamma"],
            phi=p["phi"],
            level=level,
            trend=trend,
            seasonal_state=seas,
            family=self._family,
        )


class SimpleExpSmoothing(_EtsBase):
    """Simple exponential smoothing — no trend, no seasonality.

    Suitable for stationary workloads; the single ``alpha`` controls how
    quickly old observations are forgotten.
    """

    _family = "SES"

    def __init__(self, alpha: float | None = None) -> None:
        if alpha is not None and not 0.0 < alpha < 1.0:
            raise ModelError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha

    def _spec(self) -> _EtsSpec:
        return _EtsSpec(trend=False, damped=False, seasonal=None, period=1)

    def _fixed_params(self) -> dict[str, float]:
        return {} if self.alpha is None else {"alpha": self.alpha}


class Holt(_EtsBase):
    """Holt's linear trend method, optionally damped.

    Handles workloads with drift but no stable seasonal pattern ("fixed
    drift" in the paper's Section 4.3 terminology).
    """

    _family = "HLT"

    def __init__(self, damped: bool = False) -> None:
        self.damped = bool(damped)

    def _spec(self) -> _EtsSpec:
        return _EtsSpec(trend=True, damped=self.damped, seasonal=None, period=1)


class HoltWinters(_EtsBase):
    """Holt–Winters seasonal exponential smoothing — the paper's **HES**.

    Parameters
    ----------
    period:
        Seasonal period (24 for hourly data with a daily cycle).
    seasonal:
        ``"add"`` for stable-amplitude cycles, ``"mul"`` when seasonal
        swings scale with the level (typical for growing OLTP workloads).
    trend:
        Include Holt's trend component (default True).
    damped:
        Damp the trend for long horizons.
    """

    _family = "HES"

    def __init__(
        self,
        period: int,
        seasonal: str = "add",
        trend: bool = True,
        damped: bool = False,
    ) -> None:
        if period < 2:
            raise ModelError(f"seasonal period must be >= 2, got {period}")
        if seasonal not in ("add", "mul"):
            raise ModelError(f"seasonal must be 'add' or 'mul', got {seasonal!r}")
        self.period = int(period)
        self.seasonal = seasonal
        self.trend = bool(trend)
        self.damped = bool(damped)
        if damped and not trend:
            raise ModelError("damped=True requires trend=True")

    def _spec(self) -> _EtsSpec:
        return _EtsSpec(
            trend=self.trend,
            damped=self.damped,
            seasonal=self.seasonal,
            period=self.period,
        )


# ---------------------------------------------------------------------------
# Cohort (structure-of-arrays) entry points
#
# A cohort is a list of fitted models sharing one _EtsSpec; per-key scalars
# stack into (B,) vectors and the batched kernels run the cross-key axis
# vectorised. Both helpers are bit-identical, row for row, to calling the
# per-key method on each model — the batch of one *is* the per-key call.
# ---------------------------------------------------------------------------
def _cohort_params(models: list[FittedExpSmoothing]) -> _EtsSpec:
    if not models:
        raise ModelError("empty smoothing cohort")
    spec = models[0].spec
    if any(m.spec != spec for m in models):
        raise ModelError("smoothing cohort mixes specs; group by spec first")
    return spec


def advance_cohort(
    models: list[FittedExpSmoothing], values: np.ndarray
) -> tuple[list[FittedExpSmoothing], np.ndarray]:
    """Roll a same-spec cohort through new observations in one kernel call.

    ``values`` is ``(B, n_new)`` — row ``i`` continues ``models[i]``'s
    training series. The seasonal buffers are phase-rotated per row so the
    single batched recursion continues each key's training rotation
    (``seasonal[t % m]`` with ``t`` counted from each key's own training
    length), then rotated back. Returns ``(rolled models, innovations
    (B, n_new))``; see :meth:`FittedExpSmoothing.advance` for the
    single-model contract this batches.
    """
    values = np.ascontiguousarray(values, dtype=float)
    if values.ndim != 2:
        raise ModelError(f"cohort values must be (batch, n_new), got {values.shape}")
    if values.shape[0] != len(models):
        raise ModelError(
            f"cohort size mismatch: {len(models)} models, {values.shape[0]} value rows"
        )
    if values.shape[1] == 0:
        raise ModelError("cannot advance through zero observations")
    spec = _cohort_params(models)
    m = spec.period
    offsets = np.array([len(model.train) % m for model in models])
    # One gather instead of B np.roll calls: row i of ``rolled_seas`` is
    # np.roll(seasonal_state, -offsets[i]), bit for bit (pure permutation).
    seas_mat = np.stack([model.seasonal_state for model in models])
    phase = np.arange(m)[None, :]
    rolled_seas = np.take_along_axis(seas_mat, (phase + offsets[:, None]) % m, axis=1)
    errors, levels, trends, seas = kernels.ets_recursion_batch(
        values,
        spec.trend,
        _SEASONAL_MODE[spec.seasonal],
        m,
        np.array([model.alpha for model in models]),
        np.array([model.beta for model in models]),
        np.array([model.gamma for model in models]),
        np.array([model.phi for model in models]),
        np.array([model.level for model in models]),
        np.array([model.trend for model in models]),
        rolled_seas,
    )
    unrolled = np.take_along_axis(seas, (phase - offsets[:, None]) % m, axis=1)
    out: list[FittedExpSmoothing] = []
    for i, model in enumerate(models):
        # Contiguity holds by construction (row i continues train i), so
        # extend the train directly rather than routing through append's
        # re-validation — the resulting series is identical.
        out.append(
            replace(
                model,
                train=replace(
                    model.train,
                    values=np.concatenate([model.train.values, values[i]]),
                ),
                residuals=np.concatenate([model.residuals, errors[i]]),
                level=float(levels[i]),
                trend=float(trends[i]),
                seasonal_state=unrolled[i].copy(),
            )
        )
    return out, errors


def _cohort_point_forecast(
    models: list[FittedExpSmoothing], spec: _EtsSpec, horizon: int, damp: np.ndarray
) -> np.ndarray:
    levels = np.array([model.level for model in models])
    if spec.trend:
        out = levels[:, None] + damp * np.array([model.trend for model in models])[:, None]
    else:
        out = np.repeat(levels[:, None], horizon, axis=1)
    if spec.seasonal:
        m = spec.period
        seas = np.stack(
            [
                model.seasonal_state[(len(model.train) + np.arange(horizon)) % m]
                for model in models
            ]
        )
        out = out + seas if spec.seasonal == "add" else out * seas
    return np.asarray(out, dtype=float)


#: Multiplicative-std simulation memory bound: rows per ets_mul_paths_batch
#: call (each row carries a (500, horizon) shock matrix).
_MUL_STD_CHUNK = 32


def _cohort_forecast_std(
    models: list[FittedExpSmoothing], spec: _EtsSpec, horizon: int, damp: np.ndarray
) -> np.ndarray:
    sigma2 = np.array([model.sigma2 for model in models])
    B = len(models)
    m = spec.period
    if spec.seasonal != "mul":
        alphas = np.array([model.alpha for model in models])
        c = np.repeat(alphas[:, None], horizon, axis=1)
        if spec.trend:
            betas = np.array([model.beta for model in models])
            c = c + (alphas * betas)[:, None] * damp
        if spec.seasonal == "add" and m > 1:
            gammas = np.array([model.gamma for model in models])
            c = np.where(
                (np.arange(1, horizon + 1) % m == 0)[None, :],
                c + (gammas * (1 - alphas))[:, None],
                c,
            )
        acc = np.concatenate(
            [np.zeros((B, 1)), np.cumsum(c[:, :-1] ** 2, axis=1)], axis=1
        )
        return np.sqrt(sigma2[:, None] * (1.0 + acc))
    sigma = np.sqrt(sigma2)
    std = np.empty((B, horizon))
    for lo in range(0, B, _MUL_STD_CHUNK):
        chunk = models[lo : lo + _MUL_STD_CHUNK]
        # One fresh generator per key, exactly as the per-key path draws.
        shocks = np.stack(
            [
                np.random.default_rng(1234).normal(0.0, sigma[lo + j], size=(500, horizon))
                for j in range(len(chunk))
            ]
        )
        sims = kernels.ets_mul_paths_batch(
            np.array([model.level for model in chunk]),
            np.array([model.trend for model in chunk]),
            np.stack([model.seasonal_state for model in chunk]),
            np.array([model.alpha for model in chunk]),
            np.array([model.beta for model in chunk]),
            np.array([model.gamma for model in chunk]),
            np.array([model.phi for model in chunk]),
            spec.trend,
            m,
            np.array([len(model.train) for model in chunk]),
            shocks,
        )
        for j in range(len(chunk)):
            std[lo + j] = sims[j].std(axis=0)
    return std


def forecast_cohort_arrays(
    models: list[FittedExpSmoothing], horizon: int, alpha: float = 0.05
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forecast a same-spec cohort as stacked ``(B, horizon)`` bands.

    Returns ``(mean, lower, upper)`` — row ``i`` bit-identical to
    ``models[i].forecast(horizon, alpha)``'s band values, without building
    per-key :class:`~repro.models.base.Forecast`/TimeSeries objects. The
    caller owns timestamps (each row's forecast starts one step after its
    model's training end).
    """
    if horizon <= 0:
        raise ModelError(f"horizon must be positive, got {horizon}")
    spec = _cohort_params(models)
    if spec.trend:
        if spec.damped:
            phis = np.array([model.phi for model in models])
            damp = np.cumsum(phis[:, None] ** np.arange(1, horizon + 1, dtype=float), axis=1)
        else:
            damp = np.repeat(np.arange(1, horizon + 1, dtype=float)[None, :], len(models), axis=0)
    else:
        damp = np.empty((len(models), 0))
    mean = _cohort_point_forecast(models, spec, horizon, damp)
    std = _cohort_forecast_std(models, spec, horizon, damp)
    if np.any(std < 0):
        raise ModelError("negative forecast standard deviation")
    z = band_z(alpha)
    return mean, mean - z * std, mean + z * std
