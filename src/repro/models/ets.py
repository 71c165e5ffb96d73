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
:func:`fit_many` fits many models at once: their optimisers step in
lockstep and each round's objectives run as one batched recursion, with
every fit bit-identical to fitting it alone. Prediction intervals use the
standard analytic variance expressions for the additive cases (Hyndman et
al., *Forecasting: Principles & Practice*) and a Gaussian simulation
through the recursion for multiplicative seasonality, where no closed
form exists.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy import optimize

from ..core.stats import band_z
from ..core.timeseries import TimeSeries
from ..exceptions import ConvergenceError, ModelError
from . import kernels, lbfgsb
from .base import FittedModel, Forecast, ForecastModel, check_series

__all__ = [
    "SimpleExpSmoothing",
    "Holt",
    "HoltWinters",
    "FittedExpSmoothing",
    "fit_many",
    "advance_cohort",
    "forecast_cohort_arrays",
]

_BOUND = (1e-4, 0.9999)
_PHI_BOUND = (0.8, 0.998)
_DEFAULTS = {"alpha": 0.3, "beta": 0.1, "gamma": 0.1, "phi": 0.97}
#: Column order of a parameter row: the recursion's argument order.
_PARAM_NAMES = ("alpha", "beta", "gamma", "phi")
#: L-BFGS-B iteration budget of every smoothing fit.
_MAXITER = 200

#: Rows below which a lockstep round runs its objectives one by one
#: through the scalar kernel instead of one ``ets_recursion_batch`` call.
#: Measured on the numpy backend over 984 steps (2-vCPU Xeon): one batched
#: call costs about the same at any width up to ~64 rows (15-22 ms), one
#: scalar pass 0.3-0.6 ms, and the two break even at 32 rows.
LOCKSTEP_MIN_ROWS = 32

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

    def point_forecast(self, horizon: int) -> np.ndarray:
        """The forecast's mean values: :meth:`forecast` without the band.

        The one-row case of the cohort point forecast.
        """
        spec = self.spec
        damp = _cohort_damp([self], spec, horizon)
        return _cohort_point_forecast([self], spec, horizon, damp)[0]

    def _forecast_std(self, horizon: int) -> np.ndarray:
        """Forecast standard deviations.

        Additive models use the closed-form cumulative-variance
        expressions, as the one-row case of the cohort std. Multiplicative
        seasonality falls back to a Gaussian simulation through the
        recursion: 500 paths of the seed-1234 standard-normal draw
        (:func:`_unit_shocks`, shared by every fit) scaled by this fit's
        sigma, bit for bit what a fresh ``default_rng(1234)``'s
        ``normal(0.0, sigma, (500, horizon))`` would draw.
        """
        spec = self.spec
        if spec.seasonal != "mul":
            damp = _cohort_damp([self], spec, horizon)
            return _cohort_forecast_std([self], spec, horizon, damp)[0]
        sims = kernels.ets_mul_paths(
            self.level,
            self.trend,
            self.seasonal_state,
            self.alpha,
            self.beta,
            self.gamma,
            self.phi,
            spec.trend,
            spec.period,
            len(self.train),
            _mul_shocks(np.atleast_1d(np.sqrt(self.sigma2)), horizon)[0],
        )
        return sims.std(axis=0)

    def forecast(self, horizon: int, alpha: float = 0.05) -> Forecast:
        if horizon <= 0:
            raise ModelError(f"horizon must be positive, got {horizon}")
        mean = self.point_forecast(horizon)
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
        (fitted,) = fit_many([(self, series)])
        if isinstance(fitted, Exception):
            raise fitted
        return fitted

    def _problem(self, series: TimeSeries) -> _FitProblem:
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
        params = dict(_DEFAULTS)
        params.update(fixed)
        if not spec.trend:
            params["beta"] = 0.0
            params["phi"] = 1.0
        elif not spec.damped:
            params["phi"] = 1.0
        if not spec.seasonal:
            params["gamma"] = 0.0
        return _FitProblem(
            model=self,
            series=series,
            y=y,
            spec=spec,
            level0=level0,
            trend0=trend0,
            seasonal0=seasonal0,
            free=[n for n in names if n not in fixed],
            base=np.array([params[n] for n in _PARAM_NAMES]),
        )


@dataclass
class _FitProblem:
    """One prepared smoothing fit: data, start state and free parameters.

    ``base`` holds the parameter row (``_PARAM_NAMES`` order) with the
    defaults, the fixed values and the spec's structural zeros filled
    in; the optimiser's point overwrites the ``free`` columns. The
    objective is the in-sample one-step SSE, 1e12 where it is not finite.
    """

    model: _EtsBase
    series: TimeSeries
    y: np.ndarray
    spec: _EtsSpec
    level0: float
    trend0: float
    seasonal0: np.ndarray
    free: list[str]
    base: np.ndarray

    def x0(self) -> np.ndarray:
        return np.array([_DEFAULTS[n] for n in self.free])

    def bounds(self) -> list[tuple[float, float]]:
        return [(_PHI_BOUND if n == "phi" else _BOUND) for n in self.free]

    def param_rows(self, points: np.ndarray) -> np.ndarray:
        """``(k, 4)`` parameter rows for ``(k, len(free))`` optimiser points."""
        rows = np.repeat(self.base[None, :], len(points), axis=0)
        for j, name in enumerate(self.free):
            rows[:, _PARAM_NAMES.index(name)] = points[:, j]
        return rows

    def recursion(self, row) -> tuple:
        alpha, beta, gamma, phi = (float(v) for v in row)
        return _run_recursion(
            self.y, self.spec, alpha, beta, gamma, phi, self.level0, self.trend0, self.seasonal0
        )

    def sse(self, x: np.ndarray) -> float:
        """The objective at one optimiser point (``minimize``'s ``fun``)."""
        errors = self.recursion(self.param_rows(np.asarray(x)[None, :])[0])[0]
        return _penalised_sse(errors)

    def finish(self, x_best: np.ndarray, fun: float) -> FittedExpSmoothing:
        """The fitted model at the optimiser's answer."""
        if self.free and not np.isfinite(fun):
            raise ConvergenceError(f"{self.model._family} optimisation diverged")
        row = self.param_rows(np.asarray(x_best, dtype=float).reshape(1, len(self.free)))[0]
        errors, level, trend, seas = self.recursion(row)
        spec = self.spec
        skip = spec.period if spec.seasonal else 1
        used = errors[skip:] if errors.size > skip else errors
        n_params = len(self.free) + 2 + (spec.period if spec.seasonal else 0)
        dof = max(1, used.size - len(self.free) - 1)
        sigma2 = float(used @ used) / dof
        alpha, beta, gamma, phi = (float(v) for v in row)
        return FittedExpSmoothing(
            train=self.series,
            residuals=errors,
            sigma2=sigma2,
            n_params=n_params,
            spec=spec,
            alpha=alpha,
            beta=beta,
            gamma=gamma,
            phi=phi,
            level=level,
            trend=trend,
            seasonal_state=seas,
            family=self.model._family,
        )


def _penalised_sse(errors: np.ndarray) -> float:
    # One row's own dot product, as the scalar objective has always taken
    # it: an axis reduction over a batch may sum in another order.
    sse = float(errors @ errors)
    return sse if np.isfinite(sse) else 1e12


@lru_cache(maxsize=None)
def _lockstep_ok() -> bool:
    """Once per process: do lockstep runs reproduce ``minimize`` here?"""
    return lbfgsb.matches_minimize()


def fit_many(jobs: Sequence[tuple[_EtsBase, TimeSeries]]) -> list:
    """Fit many smoothing models at once.

    ``jobs`` are ``(model, series)`` pairs. Returns one item per job, in
    order: what ``model.fit(series)`` returns, or the exception it raises.

    One L-BFGS-B run per job steps in lockstep with the others
    (:func:`repro.models.lbfgsb.minimize_steps`). Each round gathers every
    waiting objective and finite-difference point; the points of one
    ``(spec, series length)`` group run as one
    :func:`~repro.models.kernels.ets_recursion_batch` call, or row by row
    through :func:`~repro.models.kernels.ets_recursion` when the group has
    fewer than :data:`LOCKSTEP_MIN_ROWS` rows. Batch rows are bit-identical
    to scalar passes and each row's SSE is its own dot product, so every
    fit equals the one ``optimize.minimize`` would make. Where the
    installed scipy's optimiser cannot be driven that way (checked once
    per process) every job runs through ``minimize`` instead.
    """
    out: list = [None] * len(jobs)
    problems: list[tuple[int, _FitProblem]] = []
    for i, (model, series) in enumerate(jobs):
        try:
            problems.append((i, model._problem(series)))
        except Exception as exc:
            out[i] = exc
    solve = _solve_lockstep if _lockstep_ok() else _solve_minimize
    for (i, problem), answer in zip(problems, solve([p for __, p in problems])):
        if isinstance(answer, Exception):
            out[i] = answer
            continue
        try:
            out[i] = problem.finish(*answer)
        except Exception as exc:
            out[i] = exc
    return out


def _solve_minimize(problems: list[_FitProblem]) -> list:
    """``(x, fun)`` per problem from ``optimize.minimize``, or its exception."""
    out: list = []
    for problem in problems:
        if not problem.free:
            out.append((np.empty(0), 0.0))
            continue
        try:
            result = optimize.minimize(
                problem.sse,
                problem.x0(),
                method="L-BFGS-B",
                bounds=problem.bounds(),
                options={"maxiter": _MAXITER},
            )
        except Exception as exc:
            out.append(exc)
        else:
            out.append((result.x, result.fun))
    return out


def _solve_lockstep(problems: list[_FitProblem]) -> list:
    """:func:`_solve_minimize`'s answers, every run stepped together."""
    out: list = [None] * len(problems)
    waiting: dict[int, tuple] = {}

    def step(i: int, steps, values) -> None:
        try:
            block = next(steps) if values is None else steps.send(values)
        except StopIteration as stop:
            out[i] = stop.value
        except Exception as exc:
            out[i] = exc
        else:
            waiting[i] = (steps, block)

    for i, problem in enumerate(problems):
        if not problem.free:
            out[i] = (np.empty(0), 0.0)
            continue
        lower, upper = np.array(problem.bounds()).T
        step(i, lbfgsb.minimize_steps(problem.x0(), lower, upper, _MAXITER), None)
    while waiting:
        current = dict(waiting)
        waiting.clear()
        answers = _objective_round({i: (problems[i], block) for i, (__, block) in current.items()})
        for i, (steps, __) in current.items():
            if isinstance(answers[i], Exception):
                steps.close()
                out[i] = answers[i]
            else:
                step(i, steps, answers[i])
    return out


def _objective_round(requests: dict[int, tuple[_FitProblem, np.ndarray]]) -> dict:
    """Objective values for every waiting point block of one lockstep round.

    Blocks group by ``(spec, series length)``; a group of at least
    :data:`LOCKSTEP_MIN_ROWS` rows runs as one batched recursion, a
    smaller one (or a batch that raised) row by row. Returns each
    request's list of values, or the exception its rows raised.
    """
    groups: dict[tuple, list[int]] = {}
    for i, (problem, __) in requests.items():
        groups.setdefault((problem.spec, problem.y.size), []).append(i)
    out: dict = {}
    for (spec, __), members in groups.items():
        rows = [requests[i][0].param_rows(requests[i][1]) for i in members]
        if sum(len(r) for r in rows) >= LOCKSTEP_MIN_ROWS:
            try:
                values = _batched_values(spec, [requests[i][0] for i in members], rows)
            except Exception:
                pass  # fall through: row by row attributes the failure
            else:
                out.update(zip(members, values))
                continue
        for i, params in zip(members, rows):
            problem = requests[i][0]
            try:
                out[i] = [_penalised_sse(problem.recursion(row)[0]) for row in params]
            except Exception as exc:
                out[i] = exc
    return out


def _batched_values(
    spec: _EtsSpec, problems: list[_FitProblem], rows: list[np.ndarray]
) -> list[list[float]]:
    """Each problem's objective values, all rows in one batched recursion."""
    counts = [len(r) for r in rows]
    params = np.concatenate(rows)
    # The round's one copy of its series, time-major as the kernel's loop
    # reads them: the (rows, n) view passed on transposes back for free.
    values = np.empty((problems[0].y.size, len(params)))
    start = 0
    for p, k in zip(problems, counts):
        values[:, start : start + k] = p.y[:, None]
        start += k
    errors = kernels.ets_recursion_batch(
        values.T,
        spec.trend,
        _SEASONAL_MODE[spec.seasonal],
        spec.period,
        params[:, 0],
        params[:, 1],
        params[:, 2],
        params[:, 3],
        np.repeat([p.level0 for p in problems], counts),
        np.repeat([p.trend0 for p in problems], counts),
        np.concatenate([np.broadcast_to(p.seasonal0, (k, p.seasonal0.size))
                        for p, k in zip(problems, counts)]),
    )[0]
    ends = np.cumsum(counts)
    return [[_penalised_sse(errors[r]) for r in range(end - k, end)]
            for end, k in zip(ends, counts)]


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


def _cohort_damp(models: list[FittedExpSmoothing], spec: _EtsSpec, horizon: int) -> np.ndarray:
    """Trend multipliers ``sum(phi**i, i=1..h)`` for h = 1..horizon, ``(B, horizon)``.

    Damped trends take one cumulative sum per row, adding the terms in
    order; an undamped trend's multiplier is ``h``. ``(B, 0)`` without a
    trend.
    """
    if not spec.trend:
        return np.empty((len(models), 0))
    if spec.damped:
        phis = np.array([model.phi for model in models])
        return np.cumsum(phis[:, None] ** np.arange(1, horizon + 1, dtype=float), axis=1)
    return np.repeat(np.arange(1, horizon + 1, dtype=float)[None, :], len(models), axis=0)


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


#: Paths of the multiplicative-seasonal band simulation, and the seed of
#: the standard-normal draw every fit's shocks are scaled from.
_MUL_PATHS = 500
_MUL_SEED = 1234

#: Multiplicative-std simulation memory bound: rows per ets_mul_paths_batch
#: call. Each row carries a (500, horizon) shock matrix, its simulated
#: paths and the std's deviations: 3 x 4 kB per horizon step, so a full
#: chunk at the scheduler's 25-step grading horizon holds about 9.6 MB.
_MUL_STD_CHUNK = 32

#: The seed-1234 standard-normal stream behind every multiplicative band,
#: read-only. It holds the longest horizon asked for so far (see
#: :func:`_unit_shocks`).
_unit_stream = np.empty(0)


def _unit_shocks(horizon: int) -> np.ndarray:
    """``default_rng(1234).standard_normal((500, horizon))``, read-only.

    That draw is the first ``500 * horizon`` values of the generator's
    stream in row order, so each horizon's draw is a reshaped view of one
    cached stream, redrawn longer when a longer horizon is asked for. The
    cache holds 4 kB per step of the longest horizon drawn: 768 kB at the
    scheduler's longest hourly grading horizon (24 + 168 steps).
    """
    global _unit_stream
    n = _MUL_PATHS * horizon
    stream = _unit_stream
    if stream.size < n:
        stream = np.random.default_rng(_MUL_SEED).standard_normal(n)
        stream.flags.writeable = False
        _unit_stream = stream
    return stream[:n].reshape(_MUL_PATHS, horizon)


def _mul_shocks(sigma: np.ndarray, horizon: int) -> np.ndarray:
    """``(B, 500, horizon)`` Gaussian shocks, row ``i`` of scale ``sigma[i]``.

    Bit for bit ``default_rng(1234).normal(0.0, sigma[i], (500, horizon))``:
    numpy's normal computes ``loc + scale * z`` over the standard-normal
    draw, and rejects a scale with its sign bit set (``-0.0`` included,
    NaN not) with the same error.
    """
    if np.any(np.signbit(sigma) & ~np.isnan(sigma)):
        raise ValueError("scale < 0")
    shocks = np.multiply(sigma[:, None, None], _unit_shocks(horizon))
    return np.add(0.0, shocks, out=shocks)


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
        # var_h = sigma2 * (1 + sum_{j<h} c_j^2): the accumulator lags
        # one step, hence the leading zero.
        acc = np.concatenate(
            [np.zeros((B, 1)), np.cumsum(c[:, :-1] ** 2, axis=1)], axis=1
        )
        return np.sqrt(sigma2[:, None] * (1.0 + acc))
    sigma = np.sqrt(sigma2)
    std = np.empty((B, horizon))
    for lo in range(0, B, _MUL_STD_CHUNK):
        chunk = models[lo : lo + _MUL_STD_CHUNK]
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
            _mul_shocks(sigma[lo : lo + _MUL_STD_CHUNK], horizon),
        )
        # Each row keeps the per-key (paths, horizon) layout, so numpy sums
        # every (row, step)'s paths in the order the per-key std does.
        std[lo : lo + len(chunk)] = sims.std(axis=1)
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
    damp = _cohort_damp(models, spec, horizon)
    mean = _cohort_point_forecast(models, spec, horizon, damp)
    std = _cohort_forecast_std(models, spec, horizon, damp)
    if np.any(std < 0):
        raise ModelError("negative forecast standard deviation")
    z = band_z(alpha)
    return mean, mean - z * std, mean + z * std
