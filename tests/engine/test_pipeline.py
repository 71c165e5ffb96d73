"""Tests for the staged Figure 4 pipeline, stage by stage."""

import time

import numpy as np
import pytest

from repro.core import Frequency, TimeSeries
from repro.engine import (
    PIPELINE_STAGES,
    PoolExecutor,
    SelectionContext,
    SerialExecutor,
    new_context,
    run_pipeline,
    run_pipeline_batch,
    stage_augment,
    stage_branch_choose,
    stage_characterise,
    stage_enumerate,
    stage_refit,
    stage_repair,
    stage_score,
    stage_split,
)
from repro.exceptions import SelectionError
from repro.selection import AutoConfig, CandidateSpec, GridResult, auto_select


def hourly_series(n=400, seed=0, trend=0.0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    y = 50 + trend * t + 8 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1, n)
    return TimeSeries(y, Frequency.HOURLY, name="cpu")


def make_ctx(series=None, config=None, **kwargs):
    return SelectionContext(
        series=series if series is not None else hourly_series(),
        config=config or AutoConfig(),
        executor=SerialExecutor(),
        **kwargs,
    )


def run_stages(ctx, *stages):
    for stage in stages:
        stage(ctx)
    return ctx


class TestStageRepair:
    def test_missing_values_interpolated(self):
        series = hourly_series()
        values = series.values.copy()
        values[100:105] = np.nan
        ctx = make_ctx(series.with_values(values))
        stage_repair(ctx)
        assert np.all(np.isfinite(ctx.series.values))
        assert len(ctx.series) == len(series)


class TestStageSplit:
    def test_short_series_fallback(self):
        ctx = run_stages(make_ctx(), stage_repair, stage_split)
        # 400 hourly points are below the Table 1 budget of 1008: hold out
        # max(horizon, 10%) = 40 points.
        assert len(ctx.test) == 40
        assert len(ctx.train) == 360

    def test_table1_split_when_long_enough(self):
        ctx = run_stages(make_ctx(hourly_series(n=1100)), stage_repair, stage_split)
        assert len(ctx.train) == 984
        assert len(ctx.test) == 24

    def test_explicit_split_honoured(self):
        series = hourly_series()
        train, test = series.split(390)
        ctx = make_ctx(series, train=train, test=test)
        stage_split(ctx)
        assert len(ctx.train) == 390
        assert len(ctx.test) == 10


class TestStageCharacterise:
    def test_periods_and_seasonality(self):
        ctx = run_stages(make_ctx(), stage_repair, stage_split, stage_characterise)
        assert ctx.primary == 24
        assert 24 in ctx.seasonality.periods

    def test_unsupportable_period_dropped(self):
        # 92 weekly points cannot carry the 52-week cycle.
        rng = np.random.default_rng(3)
        series = TimeSeries(100 + rng.normal(0, 1, 92), Frequency.WEEKLY)
        ctx = run_stages(make_ctx(series), stage_repair, stage_split, stage_characterise)
        assert ctx.primary is None

    def test_hes_fitted_in_auto_mode(self):
        ctx = run_stages(make_ctx(), stage_repair, stage_split, stage_characterise)
        assert ctx.hes_model is not None
        assert np.isfinite(ctx.hes_rmse)
        assert ctx.trace.counters.get("hes_candidates") == 2

    def test_hes_skipped_for_sarimax_technique(self):
        ctx = make_ctx(config=AutoConfig(technique="sarimax"))
        run_stages(ctx, stage_repair, stage_split, stage_characterise)
        assert ctx.hes_model is None

    def test_shock_calendar_only_for_grid_runs(self):
        hes_ctx = make_ctx(config=AutoConfig(technique="hes"))
        run_stages(hes_ctx, stage_repair, stage_split, stage_characterise)
        assert hes_ctx.shock_calendar is None
        grid_ctx = make_ctx(config=AutoConfig(technique="sarimax"))
        run_stages(grid_ctx, stage_repair, stage_split, stage_characterise)
        assert grid_ctx.shock_calendar is not None


class TestStageEnumerate:
    def test_skipped_for_hes(self):
        ctx = make_ctx(config=AutoConfig(technique="hes"))
        run_stages(ctx, stage_repair, stage_split, stage_characterise, stage_enumerate)
        assert ctx.specs == []

    def test_exhaustive_sarimax_is_660(self):
        ctx = make_ctx(config=AutoConfig(technique="sarimax", exhaustive=True))
        run_stages(ctx, stage_repair, stage_split, stage_characterise, stage_enumerate)
        assert len(ctx.specs) == 660
        assert ctx.trace.counters["candidates_enumerated"] == 660
        assert ctx.trace.counters["candidates_pruned"] == 0

    def test_pruned_grid_counts_pruning(self):
        ctx = make_ctx(config=AutoConfig(technique="sarimax"))
        run_stages(ctx, stage_repair, stage_split, stage_characterise, stage_enumerate)
        assert 0 < len(ctx.specs) < 660
        assert ctx.trace.counters["candidates_pruned"] == 660 - len(ctx.specs)

    def test_no_period_degrades_to_arima(self):
        rng = np.random.default_rng(4)
        series = TimeSeries(100 + np.arange(92) * 0.5 + rng.normal(0, 1, 92), Frequency.WEEKLY)
        ctx = make_ctx(series, config=AutoConfig(technique="sarimax"))
        run_stages(ctx, stage_repair, stage_split, stage_characterise, stage_enumerate)
        assert ctx.specs
        assert all(s.seasonal is None for s in ctx.specs)


class TestStageScore:
    def _scored_ctx(self, specs):
        ctx = make_ctx(config=AutoConfig(technique="sarimax", detect_shock_calendar=False))
        run_stages(ctx, stage_repair, stage_split, stage_characterise)
        ctx.specs = specs
        stage_score(ctx)
        return ctx

    def test_best_is_first_viable(self):
        ctx = self._scored_ctx(
            [CandidateSpec(order=(1, 0, 0)), CandidateSpec(order=(1, 0, 1), seasonal=(0, 1, 1, 24))]
        )
        assert ctx.best is ctx.results[0]
        assert not ctx.best.failed
        assert ctx.trace.counters["candidates_fitted"] == 2

    def test_failures_counted(self):
        # The exogenous candidate has no shock matrix: it must fail.
        ctx = self._scored_ctx(
            [
                CandidateSpec(order=(1, 0, 0)),
                CandidateSpec(order=(1, 0, 0), seasonal=(0, 0, 1, 24), exog_columns=2),
            ]
        )
        assert ctx.trace.counters["candidates_failed"] == 1
        assert ctx.trace.counters["candidates_fitted"] == 1

    def test_all_failed_raises(self):
        with pytest.raises(SelectionError):
            self._scored_ctx(
                [CandidateSpec(order=(1, 0, 0), seasonal=(0, 0, 1, 24), exog_columns=2)]
            )

    def test_worker_utilisation_recorded(self):
        ctx = self._scored_ctx([CandidateSpec(order=(1, 0, 0))])
        assert ctx.trace.worker_tasks == {"serial": 1}


class TestStageAugment:
    def test_noop_without_seasonal_winner(self):
        ctx = make_ctx(config=AutoConfig(technique="sarimax", detect_shock_calendar=False))
        run_stages(ctx, stage_repair, stage_split, stage_characterise)
        ctx.specs = [CandidateSpec(order=(1, 0, 0))]
        stage_score(ctx)
        before = list(ctx.results)
        stage_augment(ctx)
        assert ctx.results == before
        assert "candidates_augmented" not in ctx.trace.counters

    def test_augments_seasonal_winner(self):
        ctx = make_ctx(config=AutoConfig(technique="sarimax"))
        run_stages(ctx, stage_repair, stage_split, stage_characterise)
        ctx.specs = [CandidateSpec(order=(1, 0, 1), seasonal=(0, 1, 1, 24))]
        stage_score(ctx)
        stage_augment(ctx)
        if ctx.trace.counters.get("candidates_augmented"):
            assert len(ctx.results) > 1
            rmses = [r.rmse for r in ctx.results if not r.failed]
            assert rmses == sorted(rmses)

    def test_winner_identical_specs_never_refitted(self):
        # Without shock columns, the exogenous augmentations collapse to
        # an exact clone of the winner; the stage must not refit it.
        ctx = make_ctx(config=AutoConfig(technique="sarimax", detect_shock_calendar=False))
        run_stages(ctx, stage_repair, stage_split, stage_characterise)
        ctx.specs = [CandidateSpec(order=(1, 0, 1), seasonal=(0, 1, 1, 24))]
        stage_score(ctx)
        winner = ctx.best.spec
        stage_augment(ctx)
        assert sum(1 for r in ctx.results if r.spec == winner) == 1


class TestStageBranchChoose:
    def _ctx_with_scores(self, hes_rmse, grid_rmse, technique="auto"):
        ctx = make_ctx(config=AutoConfig(technique=technique))
        ctx.hes_model = object() if hes_rmse is not None else None
        ctx.hes_rmse = hes_rmse
        ctx.best = GridResult(
            spec=CandidateSpec(order=(1, 0, 1), seasonal=(0, 1, 1, 24)),
            rmse=grid_rmse,
            accuracy=None,
        )
        return ctx

    def test_auto_prefers_lower_rmse(self):
        ctx = self._ctx_with_scores(hes_rmse=1.0, grid_rmse=2.0)
        stage_branch_choose(ctx)
        assert ctx.winner == "hes"
        ctx = self._ctx_with_scores(hes_rmse=3.0, grid_rmse=2.0)
        stage_branch_choose(ctx)
        assert ctx.winner == "sarimax"

    def test_sarimax_technique_never_picks_hes(self):
        ctx = self._ctx_with_scores(hes_rmse=None, grid_rmse=2.0, technique="sarimax")
        stage_branch_choose(ctx)
        assert ctx.winner == "sarimax"

    def test_lineage_recorded(self):
        ctx = self._ctx_with_scores(hes_rmse=9.0, grid_rmse=2.0)
        stage_branch_choose(ctx)
        assert any("grid beats hes" in note for note in ctx.trace.lineage)


class TestStageRefitHesRegression:
    """The auto-mode HES refit must rebuild the *winning variant*.

    The old monolith hardcoded ``HoltWinters(primary, ...)``: when the HES
    branch had degraded to Holt or SES (no usable seasonal period,
    ``primary is None``) the refit crashed — or would have silently
    swapped the model family.
    """

    def _trending_weekly(self, n=92):
        rng = np.random.default_rng(5)
        values = 100 + 1.5 * np.arange(n) + rng.normal(0, 0.5, n)
        return TimeSeries(values, Frequency.WEEKLY)

    def _hes_winner_ctx(self, series):
        ctx = make_ctx(series, config=AutoConfig(technique="auto"))
        run_stages(ctx, stage_repair, stage_split, stage_characterise)
        assert ctx.primary is None  # the regression precondition
        ctx.winner = "hes"
        return ctx

    def test_holt_winner_refits_as_holt(self):
        series = self._trending_weekly()
        ctx = self._hes_winner_ctx(series)
        assert ctx.hes_model.label() in ("HLT", "SES")
        stage_refit(ctx)
        outcome = ctx.outcome
        assert outcome.technique == "hes"
        assert outcome.model.label() == ctx.hes_model.label()
        assert len(outcome.model.train) == len(series)  # refit on full window

    def test_multiplicative_seasonal_winner_preserved(self):
        # When the winner IS seasonal, the refit must keep its seasonal
        # flavour rather than resetting to additive.
        series = hourly_series(n=400, trend=0.1)
        train, test = series.split(360)
        ctx = make_ctx(series, config=AutoConfig(technique="hes"), train=train, test=test)
        stage_characterise(ctx)
        hes_model = ctx.hes_model
        assert ctx.primary == 24
        ctx.winner = "hes"
        stage_refit(ctx)
        assert ctx.outcome.model.spec.seasonal == hes_model.spec.seasonal
        assert ctx.outcome.model.spec.period == hes_model.spec.period

    def test_end_to_end_auto_mode_with_holt_winner(self, monkeypatch):
        # Force the grid to lose so auto mode picks the (non-seasonal) HES
        # winner; before the fix this crashed inside the refit.
        import repro.engine.pipeline as pipeline_module

        def losing_grid(specs, *args, **kwargs):
            return [
                GridResult(spec=specs[0], rmse=1e9, accuracy=None)
            ]

        monkeypatch.setattr(pipeline_module, "evaluate_grid", losing_grid)
        series = self._trending_weekly()
        outcome = auto_select(series, config=AutoConfig(technique="auto"))
        assert outcome.technique == "hes"
        assert outcome.model.label() in ("HLT", "SES")
        assert len(outcome.model.train) == len(series)


class TestRunPipeline:
    def test_stage_order_and_trace(self):
        outcome = run_pipeline(hourly_series(), config=AutoConfig(detect_shock_calendar=False))
        names = [name for name, __ in PIPELINE_STAGES]
        assert [e.name for e in outcome.trace.events][: len(names)] == names
        assert outcome.trace.counters["candidates_fitted"] >= 1

    def test_matches_auto_select_facade(self):
        config = AutoConfig(technique="sarimax", detect_shock_calendar=False)
        direct = run_pipeline(hourly_series(), config=config)
        facade = auto_select(hourly_series(), config=config)
        assert facade.best_spec == direct.best_spec
        assert facade.test_rmse == pytest.approx(direct.test_rmse)

    def test_serial_and_pool_leaderboards_identical(self):
        config = AutoConfig(technique="sarimax", detect_shock_calendar=False)
        serial = run_pipeline(hourly_series(), config=config, executor=SerialExecutor())
        pool = PoolExecutor(max_workers=2)
        try:
            pooled = run_pipeline(hourly_series(), config=config, executor=pool)
            rerun = run_pipeline(hourly_series(), config=config, executor=pool)
            assert pool.pools_created == 1  # one pool served both selections
        finally:
            pool.close()
        for parallel in (pooled, rerun):
            assert [r.spec for r in parallel.leaderboard] == [
                r.spec for r in serial.leaderboard
            ]
            assert np.allclose(
                [r.rmse for r in parallel.leaderboard],
                [r.rmse for r in serial.leaderboard],
                rtol=1e-10,
            )
        assert pooled.best_spec == serial.best_spec


class TestRunPipelineBatch:
    """Many contexts at once: each ends as it would alone."""

    @staticmethod
    def _outcome_bits(outcome):
        model = outcome.model
        return (
            outcome.technique,
            model.label(),
            outcome.best_spec,
            outcome.test_rmse,
            outcome.hes_rmse,
            model.residuals.tobytes(),
            [(r.spec, r.rmse) for r in outcome.leaderboard],
            outcome.trace.lineage,
            [e.name for e in outcome.trace.events],
        )

    def test_batch_equals_each_context_alone(self):
        cases = [
            (hourly_series(seed=1), AutoConfig(technique="hes")),
            (hourly_series(seed=2, trend=0.02), AutoConfig(detect_shock_calendar=False)),
            (hourly_series(n=30, seed=3), AutoConfig(technique="hes")),  # too short
            (hourly_series(seed=4), AutoConfig(technique="hes", refit_on_full=False)),
            (hourly_series(seed=5).with_values(hourly_series(seed=5).values - 50.0),
             AutoConfig(technique="hes")),  # crosses zero: no multiplicative variant
        ]
        contexts = [new_context(series, config, executor=SerialExecutor())
                    for series, config in cases]
        errors = run_pipeline_batch(contexts)
        for (series, config), ctx, error in zip(cases, contexts, errors):
            try:
                alone = run_pipeline(series, config=config, executor=SerialExecutor())
            except Exception as exc:
                assert type(error) is type(exc) and str(error) == str(exc)
                assert ctx.outcome is None
                continue
            assert error is None
            assert self._outcome_bits(ctx.outcome) == self._outcome_bits(alone)
        assert errors[2] is not None

    def test_shared_fits_are_charged_evenly_and_counted_once(self):
        from repro.models import kernels

        contexts = [new_context(hourly_series(seed=s), AutoConfig(technique="hes"),
                                executor=SerialExecutor()) for s in range(10)]
        before = kernels.stats_snapshot()
        started = time.perf_counter()
        run_pipeline_batch(contexts)
        wall = time.perf_counter() - started
        after = kernels.stats_snapshot()
        charged = sum(ctx.trace.total_seconds() for ctx in contexts)
        assert charged <= wall
        assert charged == pytest.approx(wall, rel=0.05)
        for name in ("ets_recursion_calls", "ets_recursion_batch_calls"):
            counted = sum(ctx.trace.counters.get(f"kernel_{name}", 0) for ctx in contexts)
            assert counted == after[f"kernel_{name}"] - before[f"kernel_{name}"]
        # Ten keys x two variants x four points: the rounds ran batched.
        batched = "kernel_ets_recursion_batch_calls"
        assert after[batched] > before[batched]
