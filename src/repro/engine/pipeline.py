"""The staged selection pipeline: Figure 4 as explicit, testable stages.

Historically :func:`repro.selection.auto.auto_select` was one monolithic
function. This module decomposes it into the stages the paper's Figure 4
actually draws, each a plain function over a shared
:class:`SelectionContext`:

``repair`` → ``split`` → ``characterise`` → ``enumerate`` → ``score`` →
``augment`` → ``branch-choose`` → ``refit``

The public API is unchanged — ``auto_select`` is now a thin facade over
:func:`run_pipeline` — but every stage can be exercised (and unit-tested)
in isolation, all candidate fitting runs on a shared
:class:`~repro.engine.executor.Executor`, and a
:class:`~repro.engine.telemetry.RunTrace` records stage timings,
candidate fit/fail/prune counts, worker utilisation and the winner's
lineage.

Stage semantics mirror the original monolith exactly: the HES branch is
fitted during ``characterise`` (its RMSE is a property of the series as
much as the ACF is), the grid stages are skipped entirely for
``technique="hes"``, and ``refit`` reproduces the winner on the full
window at full optimiser budget.

:func:`run_pipeline_batch` runs the stages over many contexts at once.
``characterise`` and ``refit`` are **lockstep stages**: their smoothing
fits are requests that the batch gathers from every context into one
:func:`repro.models.ets.fit_many` call per round, so a restart's or an
onboarding wave's HES fits step together through one batched recursion.
Every other stage runs context by context, and each context's outcome is
the one :func:`run_pipeline` gives it alone.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.fourier import detect_seasonalities
from ..core.preprocessing import interpolate_missing
from ..exceptions import DataError, SelectionError
from ..models.ets import fit_many
from ..selection.auto import (
    AutoConfig,
    SelectionOutcome,
    _candidate_periods,
    _hes_refit_model,
    _hes_variants,
    _pick_hes,
)
from ..selection.correlogram import pruned_sarimax_grid, suggest_orders
from ..selection.grid import (
    CandidateSpec,
    arima_grid,
    augmentation_specs,
    dayprofile_grid,
    evaluate_grid,
    sarimax_grid,
)
from ..shocks.detector import build_shock_calendar
from . import kernels as engine_kernels
from .executor import Executor, default_executor
from .telemetry import RunTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..core.fourier import SeasonalityReport
    from ..core.timeseries import TimeSeries
    from ..models.base import FittedModel
    from ..selection.grid import GridResult
    from ..shocks.detector import ShockCalendar

__all__ = [
    "SelectionContext",
    "new_context",
    "run_pipeline",
    "run_pipeline_batch",
    "PIPELINE_STAGES",
    "stage_repair",
    "stage_split",
    "stage_characterise",
    "stage_enumerate",
    "stage_score",
    "stage_augment",
    "stage_branch_choose",
    "stage_refit",
]


@dataclass
class SelectionContext:
    """Mutable state threaded through the pipeline stages.

    A stage reads what earlier stages produced and writes its own
    contribution; :attr:`outcome` is populated by the final ``refit``
    stage.
    """

    series: TimeSeries
    config: AutoConfig
    executor: Executor
    trace: RunTrace = field(default_factory=RunTrace)
    # split
    train: TimeSeries | None = None
    test: TimeSeries | None = None
    # characterise
    periods: list[int] = field(default_factory=list)
    primary: int | None = None
    seasonality: SeasonalityReport | None = None
    hes_model: FittedModel | None = None
    hes_rmse: float | None = None
    shock_calendar: ShockCalendar | None = None
    shock_matrix: np.ndarray | None = None
    shock_future: np.ndarray | None = None
    # enumerate / score / augment
    specs: list[CandidateSpec] = field(default_factory=list)
    results: list[GridResult] = field(default_factory=list)
    best: GridResult | None = None
    # branch-choose / refit
    winner: str | None = None
    outcome: SelectionOutcome | None = None

    @property
    def grid_skipped(self) -> bool:
        """True when the SARIMAX grid stages do not apply (pure HES run)."""
        return self.config.technique == "hes"


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------
def stage_repair(ctx: SelectionContext) -> None:
    """Gather & repair: linearly interpolate missing samples."""
    ctx.series = interpolate_missing(ctx.series)


def stage_split(ctx: SelectionContext) -> None:
    """Train/test split per the Table 1 rule, honouring an explicit split.

    Series shorter than the Table 1 budget hold out one prediction
    horizon (or 10 %, whichever is larger) instead of refusing.
    """
    if ctx.train is not None and ctx.test is not None:
        return
    try:
        ctx.train, ctx.test = ctx.series.train_test_split()
    except DataError:
        horizon = ctx.series.frequency.split_rule.horizon
        test_size = max(horizon, len(ctx.series) // 10)
        if len(ctx.series) <= test_size + 20:
            raise
        ctx.train, ctx.test = ctx.series.split(len(ctx.series) - test_size)


def stage_characterise(ctx: SelectionContext) -> None:
    """Analyse the series: usable periods, seasonality, HES fit, shocks.

    A seasonal model needs at least two full cycles of training data, so
    candidate periods the split cannot support are dropped here. The HES
    branch is fitted now — its test RMSE is part of the series'
    characterisation and feeds the branch choice later. Shock analysis
    only runs when a grid will be evaluated (it feeds exogenous
    candidates, which the pure-HES run never builds).
    """
    _run_alone(_characterise_steps(ctx))


def _characterise_steps(ctx: SelectionContext):
    config = ctx.config
    ctx.periods = [
        p for p in _candidate_periods(ctx.series, config) if len(ctx.train) >= 2 * p + 5
    ]
    ctx.primary = ctx.periods[0] if ctx.periods else None
    ctx.seasonality = detect_seasonalities(ctx.train, candidates=ctx.periods)

    if config.technique in ("hes", "auto"):
        variants = _hes_variants(ctx.train, ctx.primary)
        fits = yield [(variant, ctx.train) for variant in variants]
        try:
            ctx.hes_model, ctx.hes_rmse = _pick_hes(fits, ctx.test)
            ctx.trace.count("hes_candidates", 2)
        except SelectionError:
            if config.technique == "hes":
                raise
            ctx.hes_model = ctx.hes_rmse = None  # auto mode falls through

    if ctx.grid_skipped:
        return
    if config.detect_shock_calendar:
        shock_periods = tuple(ctx.periods) or (ctx.series.frequency.default_period,)
        ctx.shock_calendar = build_shock_calendar(
            ctx.train, period=ctx.primary, candidate_periods=shock_periods
        )
        if ctx.shock_calendar.n_columns:
            ctx.shock_matrix = ctx.shock_calendar.train_matrix()
            ctx.shock_future = ctx.shock_calendar.future_matrix(len(ctx.test))


def stage_enumerate(ctx: SelectionContext) -> None:
    """Enumerate the candidate grid (correlogram-pruned by default)."""
    if ctx.grid_skipped:
        return
    config = ctx.config
    if ctx.primary is None:
        # No usable seasonal period: the family degrades to the plain
        # ARIMA grid, correlogram-pruned unless exhaustive was requested.
        specs = arima_grid(max_lag=config.max_lag)
        full = len(specs)
        if not config.exhaustive:
            suggestion = suggest_orders(ctx.train, 1, nlags=config.max_lag)
            pruned = [
                s
                for s in specs
                if s.order[0] in suggestion.p_candidates
                and s.order[1] == min(suggestion.d, 1)
            ]
            specs = pruned or specs
        # Differenced candidates get drift twins so a growing workload
        # (challenge C2) can be extrapolated, not just levelled off.
        specs = specs + [
            CandidateSpec(order=s.order, trend="c")
            for s in specs
            if s.order[1] >= 1
        ]
    elif config.exhaustive:
        specs = sarimax_grid(ctx.primary, max_lag=config.max_lag)
        full = len(specs)
    else:
        specs = pruned_sarimax_grid(ctx.train, ctx.primary, nlags=config.max_lag)
        full = len(sarimax_grid(ctx.primary, max_lag=config.max_lag))
    ctx.trace.count("candidates_pruned", max(0, full - len(specs)))
    # Opt-in day-profile candidates race alongside the ARIMA families:
    # one cheap clustering fit per cluster count, enumerable whenever the
    # training window holds at least three complete seasonal cycles.
    if (
        config.dayprofile
        and ctx.primary is not None
        and len(ctx.train) >= 3 * ctx.primary
    ):
        day_specs = dayprofile_grid(ctx.primary, clusters=config.dayprofile_clusters)
        specs = specs + day_specs
        ctx.trace.count("candidates_dayprofile", len(day_specs))
    ctx.specs = specs
    ctx.trace.count("candidates_enumerated", len(specs))


def stage_score(ctx: SelectionContext) -> None:
    """Fit and score every enumerated candidate on the executor.

    The shared data bundle travels to the executor as one broadcast
    payload; with ``config.racing`` the population is raced through
    successive-halving rungs instead of fitted at full budget.
    """
    if ctx.grid_skipped:
        return
    ctx.results = evaluate_grid(
        ctx.specs,
        ctx.train,
        ctx.test,
        shock_matrix=ctx.shock_matrix,
        shock_future=ctx.shock_future,
        maxiter=ctx.config.grid_maxiter,
        executor=ctx.executor,
        trace=ctx.trace,
        racing=ctx.config.racing_plan(),
    )
    viable = [r for r in ctx.results if not r.failed]
    ctx.trace.count("candidates_fitted", len(viable))
    ctx.trace.count("candidates_failed", len(ctx.results) - len(viable))
    if not viable:
        raise SelectionError("every SARIMAX candidate failed to fit")
    ctx.best = viable[0]


def stage_augment(ctx: SelectionContext) -> None:
    """Augment the grid winner with exogenous shocks and Fourier terms.

    Specs identical to the already-scored winner (a zero-column exogenous
    "augmentation" is just the winner again) are skipped rather than
    refitted — their score is already in ``ctx.results``.
    """
    if ctx.grid_skipped or ctx.best is None:
        return
    secondary = (
        ctx.seasonality.periods[1] if len(ctx.seasonality.periods) > 1 else None
    )
    n_shocks = ctx.shock_calendar.n_columns if ctx.shock_calendar else 0
    if not ((n_shocks or secondary) and ctx.best.spec.seasonal is not None):
        return
    aug = augmentation_specs(ctx.best.spec, n_shocks, secondary)
    aug = [s for s in aug if s.exog_columns <= n_shocks and s != ctx.best.spec]
    if not aug:
        return
    aug_results = evaluate_grid(
        aug,
        ctx.train,
        ctx.test,
        shock_matrix=ctx.shock_matrix,
        shock_future=ctx.shock_future,
        maxiter=ctx.config.grid_maxiter,
        executor=ctx.executor,
        trace=ctx.trace,
    )
    viable_aug = [r for r in aug_results if not r.failed]
    ctx.trace.count("candidates_fitted", len(viable_aug))
    ctx.trace.count("candidates_failed", len(aug_results) - len(viable_aug))
    ctx.trace.count("candidates_augmented", len(aug_results))
    ctx.results = sorted(
        ctx.results + aug_results, key=lambda r: (r.failed, r.rmse)
    )
    ctx.best = [r for r in ctx.results if not r.failed][0]


def stage_branch_choose(ctx: SelectionContext) -> None:
    """Pick the winning branch: HES vs the best grid candidate."""
    config = ctx.config
    if config.technique == "hes":
        ctx.winner = "hes"
        ctx.trace.note(f"hes branch ({ctx.hes_model.label()}, rmse {ctx.hes_rmse:.3f})")
        return
    if (
        config.technique == "auto"
        and ctx.hes_model is not None
        and ctx.hes_rmse is not None
        and ctx.hes_rmse < ctx.best.rmse
    ):
        ctx.winner = "hes"
        ctx.trace.note(
            f"auto: hes beats grid ({ctx.hes_rmse:.3f} < {ctx.best.rmse:.3f})"
        )
        return
    ctx.winner = "sarimax"
    if ctx.hes_rmse is not None:
        ctx.trace.note(
            f"auto: grid beats hes ({ctx.best.rmse:.3f} <= {ctx.hes_rmse:.3f})"
        )
    ctx.trace.note(f"winner {ctx.best.spec.describe()} (rmse {ctx.best.rmse:.3f})")


def stage_refit(ctx: SelectionContext) -> None:
    """Refit the winner on the full window and assemble the outcome."""
    _run_alone(_refit_steps(ctx))


def _refit_steps(ctx: SelectionContext):
    from ..models.sarimax import Sarimax

    config = ctx.config
    n_hes = 2 if ctx.hes_model is not None else 0

    if ctx.winner == "hes":
        final = ctx.hes_model
        if config.refit_on_full:
            # Route through the smoothing-variant rebuilder: the winner
            # may be Holt or SES (no usable seasonal period), which a
            # blind HoltWinters(primary, ...) refit would crash on or
            # silently replace.
            (final,) = yield [(_hes_refit_model(ctx.hes_model), ctx.series)]
            if isinstance(final, Exception):
                raise final
            ctx.trace.note(f"refit {final.label()} on full window")
        ctx.outcome = SelectionOutcome(
            model=final,
            technique="hes",
            test_rmse=ctx.hes_rmse,
            best_spec=None,
            seasonality=ctx.seasonality,
            shock_calendar=ctx.shock_calendar,
            leaderboard=ctx.results[:20],
            hes_rmse=ctx.hes_rmse,
            n_evaluated=len(ctx.results) + n_hes,
            trace=ctx.trace,
        )
        return

    best = ctx.best
    refit_series = ctx.series if config.refit_on_full else ctx.train
    model = best.spec.build(maxiter=config.final_maxiter)
    exog = None
    if best.spec.exog_columns and ctx.shock_calendar is not None:
        # The recurring shocks found on the train window also describe the
        # refit window — only their phase origin moves.
        offset = int(
            round((ctx.train.start - refit_series.start) / ctx.series.frequency.seconds)
        )
        ctx.shock_calendar = ctx.shock_calendar.realigned(offset, len(refit_series))
        exog = ctx.shock_calendar.train_matrix()[:, : best.spec.exog_columns]
    if isinstance(model, Sarimax):
        fitted = model.fit(refit_series, exog=exog)
    else:
        fitted = model.fit(refit_series)
    if config.refit_on_full:
        ctx.trace.note(f"refit {best.spec.describe()} on full window")

    ctx.outcome = SelectionOutcome(
        model=fitted,
        technique="dayprofile" if best.spec.dayprofile is not None else "sarimax",
        test_rmse=best.rmse,
        best_spec=best.spec,
        seasonality=ctx.seasonality,
        shock_calendar=ctx.shock_calendar,
        leaderboard=ctx.results[:20],
        hes_rmse=ctx.hes_rmse,
        n_evaluated=len(ctx.results) + n_hes,
        trace=ctx.trace,
    )


def _run_alone(steps) -> None:
    """Run a lockstep stage's steps on one context: one fit_many per request."""
    try:
        request = next(steps)
        while True:
            request = steps.send(fit_many(request))
    except StopIteration:
        pass


#: The Figure 4 stages in execution order.
PIPELINE_STAGES: tuple[tuple[str, object], ...] = (
    ("repair", stage_repair),
    ("split", stage_split),
    ("characterise", stage_characterise),
    ("enumerate", stage_enumerate),
    ("score", stage_score),
    ("augment", stage_augment),
    ("branch-choose", stage_branch_choose),
    ("refit", stage_refit),
)


#: The lockstep stages' steps: generators that yield lists of
#: ``(model, series)`` fit jobs and receive their :func:`fit_many` results.
_LOCKSTEP_STEPS = {stage_characterise: _characterise_steps, stage_refit: _refit_steps}


def new_context(
    series: TimeSeries,
    config: AutoConfig | None = None,
    train: TimeSeries | None = None,
    test: TimeSeries | None = None,
    executor: Executor | None = None,
    trace: RunTrace | None = None,
) -> SelectionContext:
    """A fresh context; ``executor`` defaults to the shared one for ``config.n_jobs``."""
    config = config or AutoConfig()
    if executor is None:
        executor = default_executor(config.n_jobs)
    return SelectionContext(
        series=series,
        config=config,
        executor=executor,
        trace=trace or RunTrace(),
        train=train,
        test=test,
    )


def run_pipeline(
    series: TimeSeries,
    config: AutoConfig | None = None,
    train: TimeSeries | None = None,
    test: TimeSeries | None = None,
    executor: Executor | None = None,
    trace: RunTrace | None = None,
) -> SelectionOutcome:
    """Run every stage in order and return the assembled outcome.

    The batch of one: :func:`run_pipeline_batch` over a single
    :func:`new_context`, re-raising the error a stage raised.
    ``executor`` defaults to the shared executor for ``config.n_jobs``
    (one process pool per worker count, reused across calls).
    """
    ctx = new_context(series, config, train=train, test=test, executor=executor, trace=trace)
    (error,) = run_pipeline_batch([ctx])
    if error is not None:
        raise error
    return ctx.outcome


def run_pipeline_batch(contexts: Sequence[SelectionContext]) -> list[Exception | None]:
    """Run every stage over many contexts; their HES fits step in lockstep.

    Stages run in :data:`PIPELINE_STAGES` order. A plain stage runs
    context by context; a lockstep stage (``characterise``, ``refit``)
    gathers every live context's fit requests into one
    :func:`~repro.models.ets.fit_many` call per round. A context whose
    stage raises drops out and gets that exception in the returned list
    (``None`` for the rest, whose ``outcome`` is set); the others run on.

    Each context's trace gets a stage event per stage it ran, timed as
    its own work plus an even share of the batched calls it took part
    in, and the kernel counters of that work, shared calls split the
    same way: per-context times sum to the batch's, and each kernel call
    is counted once across the contexts.
    """
    ledger = _Ledger(len(contexts))
    errors: list[Exception | None] = [None] * len(contexts)
    for name, fn in PIPELINE_STAGES:
        live = [i for i, error in enumerate(errors) if error is None]
        # A lone context has nothing to share its fits with.
        steps = _LOCKSTEP_STEPS.get(fn) if len(live) > 1 else None
        if steps is None:
            for i in live:
                with ledger.charge([i]):
                    try:
                        fn(contexts[i])
                    except Exception as exc:
                        errors[i] = exc
        else:
            _run_lockstep(steps, contexts, live, ledger, errors)
        for i in live:
            contexts[i].trace.add_stage(name, ledger.take_seconds(i))
    backend = engine_kernels.active_backend()
    for i, ctx in enumerate(contexts):
        engine_kernels.absorb_delta(ctx.trace, ledger.kernels[i])
        ctx.trace.set_info("kernel_backend", backend)
    return errors


def _run_lockstep(steps, contexts, live, ledger, errors) -> None:
    """Drive one lockstep stage over the live contexts, requests merged per round."""
    waiting: dict[int, tuple] = {}

    def advance(i: int, gen, fits) -> None:
        with ledger.charge([i]):
            try:
                request = next(gen) if fits is None else gen.send(fits)
            except StopIteration:
                return
            except Exception as exc:
                errors[i] = exc
                return
        waiting[i] = (gen, request)

    for i in live:
        advance(i, steps(contexts[i]), None)
    while waiting:
        current = dict(waiting)
        waiting.clear()
        with ledger.charge(list(current)):
            fits = fit_many([job for __, request in current.values() for job in request])
        start = 0
        for i, (gen, request) in current.items():
            advance(i, gen, fits[start : start + len(request)])
            start += len(request)


class _Ledger:
    """Charges wall time and kernel counters to the contexts that caused them.

    Work done for one context is charged to it; a call made for several
    is split evenly between them (kernel counters as integers, the
    remainder to the first), so the charges sum to the work done.
    """

    def __init__(self, n: int) -> None:
        self.seconds = [0.0] * n
        self.kernels: list[dict[str, int]] = [{} for __ in range(n)]

    @contextmanager
    def charge(self, idxs: list[int]):
        before = engine_kernels.snapshot()
        started = time.perf_counter()
        try:
            yield
        finally:
            share = (time.perf_counter() - started) / len(idxs)
            moved = engine_kernels.delta(before, engine_kernels.snapshot())
            for i in idxs:
                self.seconds[i] += share
            for key, value in moved.items():
                each, extra = divmod(int(round(value)), len(idxs))
                for rank, i in enumerate(idxs):
                    self.kernels[i][key] = self.kernels[i].get(key, 0) + each + (rank < extra)

    def take_seconds(self, i: int) -> float:
        seconds, self.seconds[i] = self.seconds[i], 0.0
        return seconds
