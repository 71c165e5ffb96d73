"""Self-selection and self-configuration of forecast models (Figure 4).

This module is the paper's headline contribution: the supervised-learning
pipeline that removes the need for a human time-series expert. Its flow
mirrors Figure 4 exactly:

1. **Gather & repair** — missing samples are linearly interpolated.
2. **Split** — train/test per the Table 1 rule for the series' frequency.
3. **Branch** — the user (or ``technique="auto"``) chooses HES or SARIMAX.
4. **Characterise** (SARIMAX branch) — ACF/PACF, stationarity (ADF),
   seasonality, multiple seasonality and shocks are analysed.
5. **Grid** — candidate models are enumerated (correlogram-pruned by
   default; exhaustive on request) and each is fitted on the training set
   and scored by test RMSE.
6. **Augment** — the best SARIMAX gains exogenous shock regressors and
   Fourier terms (the paper's "+ Exogenous (4) + Fourier Terms (2)").
7. **Select & refit** — the overall RMSE-best model is refitted on the
   full window and returned, ready to be stored for a week by the
   staleness monitor.

The implementation lives in :mod:`repro.engine.pipeline` as explicit,
individually testable stages running on a shared
:class:`~repro.engine.executor.Executor`; this module keeps the public
facade (:class:`AutoConfig`, :class:`SelectionOutcome`,
:func:`auto_select`, :func:`auto_forecast`) plus the HES branch helpers
the pipeline stages call back into.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from ..core.fourier import SeasonalityReport
from ..core.timeseries import TimeSeries
from ..exceptions import SelectionError
from ..models.base import FittedModel, Forecast
from ..models.ets import HoltWinters
from ..shocks.detector import ShockCalendar
from .grid import CandidateSpec, GridResult, RacingPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.executor import Executor
    from ..engine.telemetry import RunTrace

__all__ = ["AutoConfig", "SelectionOutcome", "auto_select", "auto_forecast"]


@dataclass(frozen=True)
class AutoConfig:
    """Knobs for the Figure 4 pipeline.

    Attributes
    ----------
    technique:
        ``"sarimax"``, ``"hes"`` or ``"auto"`` (fit both branches, keep the
        test-RMSE winner — the paper's production UI lets the user choose;
        auto mode makes the choice data-driven).
    period:
        Primary seasonal period; ``None`` derives it from the frequency.
    exhaustive:
        Evaluate the full 660-model SARIMAX grid instead of the
        correlogram-pruned one. Slow; used by the Table 2 benches.
    max_lag:
        Grid lag budget (the paper measures 30 lags).
    n_jobs:
        Parallel workers for grid evaluation (0 = one per CPU). Ignored
        when an explicit executor is passed to :func:`auto_select`.
    detect_shock_calendar:
        Analyse shocks and offer exogenous candidates.
    racing:
        Race grid candidates through successive-halving rungs instead of
        fitting every one at full ``grid_maxiter`` (see
        :class:`~repro.selection.grid.RacingPlan`). Ignored when
        ``exhaustive`` is set — exhaustive mode reproduces the paper's
        full-budget protocol bit for bit.
    racing_rungs / racing_eta / racing_maxiter / racing_min_specs:
        The :class:`~repro.selection.grid.RacingPlan` knobs: number of
        budget rungs, promotion divisor (top ``1/eta`` survive each
        rung), the first rung's optimiser budget, and the population size
        below which racing is skipped.
    """

    technique: str = "auto"
    period: int | None = None
    exhaustive: bool = False
    max_lag: int = 30
    n_jobs: int = 1
    detect_shock_calendar: bool = True
    refit_on_full: bool = True
    grid_maxiter: int = 30
    final_maxiter: int = 200
    racing: bool = False
    racing_rungs: int = 2
    racing_eta: float = 3.0
    racing_maxiter: int = 6
    racing_min_specs: int = 32
    #: Race day-profile clustering candidates (Leverger day-ahead family)
    #: in the SARIMAX-branch grid. Opt-in, like racing: the default grid
    #: stays bit-identical to the paper's three families.
    dayprofile: bool = False
    #: Cluster counts enumerated when ``dayprofile`` is on; each becomes
    #: one :class:`~repro.selection.grid.CandidateSpec`.
    dayprofile_clusters: tuple[int, ...] = (2, 3, 4)

    def __post_init__(self) -> None:
        if self.technique not in ("auto", "sarimax", "hes"):
            raise SelectionError(
                f"technique must be auto/sarimax/hes, got {self.technique!r}"
            )
        if self.dayprofile and not self.dayprofile_clusters:
            raise SelectionError("dayprofile needs at least one cluster count")
        if self.racing:
            self.racing_plan()  # validate the knobs eagerly

    def racing_plan(self) -> RacingPlan | None:
        """The grid-scoring :class:`RacingPlan`, or ``None`` when disabled.

        ``exhaustive`` wins over ``racing``: the escape hatch guarantees
        today's full-budget behaviour is always one flag away.
        """
        if not self.racing or self.exhaustive:
            return None
        return RacingPlan(
            rungs=self.racing_rungs,
            eta=self.racing_eta,
            rung_maxiter=self.racing_maxiter,
            min_specs=self.racing_min_specs,
        )


@dataclass
class SelectionOutcome:
    """Everything the pipeline learned while choosing a model.

    ``trace`` carries the engine's run telemetry — stage wall-times,
    candidate fit/fail/prune counters, worker utilisation and the
    winner's lineage (see :class:`repro.engine.telemetry.RunTrace`).
    """

    model: FittedModel
    technique: str
    test_rmse: float
    best_spec: CandidateSpec | None
    seasonality: SeasonalityReport | None
    shock_calendar: ShockCalendar | None
    leaderboard: list[GridResult] = field(default_factory=list)
    hes_rmse: float | None = None
    n_evaluated: int = 0
    trace: RunTrace | None = None

    def describe(self) -> str:
        bits = [f"{self.model.label()} (test RMSE {self.test_rmse:.3f}"]
        bits.append(f"{self.n_evaluated} candidates)")
        return " ".join(bits)

    @property
    def uses_exog(self) -> bool:
        """Whether the winner forecasts with shock regressors."""
        return bool(
            self.best_spec is not None
            and self.best_spec.exog_columns
            and self.shock_calendar is not None
        )

    def forecast(
        self, horizon: int, alpha: float = 0.05, model: FittedModel | None = None
    ) -> Forecast:
        """Forecast ``horizon`` steps with the winner, or with ``model``.

        ``model`` is a rolled-forward copy of the winner (the streaming
        scheduler's live state). When the winner uses shock regressors,
        their future rows come from the outcome's shock calendar.
        """
        model = self.model if model is None else model
        if not self.uses_exog:
            return model.forecast(horizon, alpha=alpha)
        return model.forecast(horizon, alpha=alpha, exog_future=self._shock_rows(model, horizon))

    def advance(
        self, values: np.ndarray, model: FittedModel | None = None
    ) -> tuple[FittedModel, np.ndarray]:
        """Roll the winner, or its rolled copy ``model``, through ``values``.

        Returns ``(rolled model, one-step innovations)`` like the
        family's ``advance``; a shock-regressor winner is handed the
        calendar rows of the new observations.
        """
        model = self.model if model is None else model
        if not self.uses_exog:
            return model.advance(values)
        return model.advance(values, exog=self._shock_rows(model, len(values)))

    def _shock_rows(self, model: FittedModel, n: int) -> np.ndarray:
        """Shock-regressor rows for the ``n`` steps after ``model``'s series.

        The calendar counts samples from the start of the window the
        winner was fitted on, which a rolled copy of it keeps, so the
        rows continue from the model's own length.
        """
        calendar = replace(self.shock_calendar, n_train=len(model.train))
        return calendar.future_matrix(n)[:, : self.best_spec.exog_columns]

    def spec_payload(self) -> dict:
        """The JSON-serialisable spec the repository stores for this winner.

        SARIMAX winners persist their full candidate spec (so
        ``restore_model`` can rebuild without a grid search); spec-less
        techniques (HES, TBATS) persist only the technique name — cheap
        enough to re-select on restart.
        """
        if self.best_spec is None:
            return {"technique": self.technique}
        if self.best_spec.dayprofile is not None:
            return {"dayprofile": list(self.best_spec.dayprofile)}
        return {
            "order": list(self.best_spec.order),
            "seasonal": list(self.best_spec.seasonal or ()),
            "exog_columns": self.best_spec.exog_columns,
            "fourier_periods": list(self.best_spec.fourier_periods),
            "fourier_orders": list(self.best_spec.fourier_orders),
        }


def _candidate_periods(series: TimeSeries, config: AutoConfig) -> list[int]:
    freq = series.frequency
    conventional = [freq.default_period]
    if freq.secondary_period:
        conventional.append(freq.secondary_period)
    if config.period:
        conventional.insert(0, config.period)
    # De-duplicate, preserve order.
    seen: list[int] = []
    for p in conventional:
        if p not in seen:
            seen.append(p)
    return seen


def _fit_hes(
    train: TimeSeries, test: TimeSeries, period: int | None
) -> tuple[FittedModel, float]:
    """The HES branch: Holt–Winters, additive vs multiplicative by RMSE.

    When no seasonal period is usable (e.g. 92 weekly observations cannot
    support a 52-week cycle) the branch degrades to Holt's linear trend
    and simple exponential smoothing.
    """
    from ..core.metrics import rmse
    from ..models.ets import Holt, SimpleExpSmoothing

    if period is not None and len(train) >= 2 * period + 1:
        candidates: list = [HoltWinters(period, seasonal="add")]
        if np.all(train.values > 0):
            candidates.append(HoltWinters(period, seasonal="mul"))
    else:
        candidates = [Holt(), Holt(damped=True), SimpleExpSmoothing()]
    best_model, best_rmse = None, float("inf")
    for spec in candidates:
        try:
            fitted = spec.fit(train)
            score = rmse(test, fitted.forecast(len(test)).mean)
        except Exception:
            continue
        if score < best_rmse:
            best_model, best_rmse = fitted, score
    if best_model is None:
        raise SelectionError("no exponential-smoothing variant could be fitted")
    return best_model, best_rmse


def _refit_hes(hes_model: FittedModel, series: TimeSeries) -> FittedModel:
    """Refit the winning smoothing variant on the full series."""
    from ..models.ets import Holt, SimpleExpSmoothing

    spec = hes_model.spec
    if spec.seasonal:
        rebuilt = HoltWinters(
            spec.period, seasonal=spec.seasonal, trend=spec.trend, damped=spec.damped
        )
    elif spec.trend:
        rebuilt = Holt(damped=spec.damped)
    else:
        rebuilt = SimpleExpSmoothing()
    return rebuilt.fit(series)


def auto_select(
    series: TimeSeries,
    config: AutoConfig | None = None,
    train: TimeSeries | None = None,
    test: TimeSeries | None = None,
    executor: Executor | None = None,
) -> SelectionOutcome:
    """Run the Figure 4 pipeline on a metric series.

    Parameters
    ----------
    series:
        The full monitored series (may contain missing samples).
    train / test:
        Optional explicit split; by default the Table 1 rule for the
        series frequency decides (e.g. hourly: last 1008 points, 984/24).
    executor:
        Execution backend for candidate fitting. ``None`` uses the
        process-wide shared executor for ``config.n_jobs`` (one reused
        pool per worker count; see
        :func:`repro.engine.executor.default_executor`).
    """
    # Imported lazily: the engine imports this module's config/outcome
    # types, so a top-level import here would be circular.
    from ..engine.pipeline import run_pipeline

    return run_pipeline(series, config=config, train=train, test=test, executor=executor)


def auto_forecast(
    series: TimeSeries,
    horizon: int | None = None,
    config: AutoConfig | None = None,
    alpha: float = 0.05,
    executor: Executor | None = None,
) -> tuple[Forecast, SelectionOutcome]:
    """One-call pipeline: select a model and forecast with it.

    ``horizon`` defaults to the Table 1 prediction length for the series'
    frequency (24 hours / 7 days / 4 weeks).
    """
    config = config or AutoConfig()
    outcome = auto_select(series, config=config, executor=executor)
    if horizon is None:
        horizon = series.frequency.split_rule.horizon
    return outcome.forecast(horizon, alpha=alpha), outcome
