"""Tests for estate-wide planning."""

import numpy as np
import pytest

from repro.core import Frequency, TimeSeries
from repro.engine import Executor, PoolExecutor, SerialExecutor, TaskReport
from repro.exceptions import DataError
from repro.selection import AutoConfig
from repro.service import (
    BreachSeverity,
    EstatePlanner,
    WorkloadKey,
    WorkloadStatus,
)


def seasonal_series(n=1100, seed=0, level=50.0, trend=0.0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    values = level + trend * t + 10 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1, n)
    return TimeSeries(values, Frequency.HOURLY)


def in_fault_series(n=1100, seed=1):
    series = seasonal_series(n=n, seed=seed)
    values = series.values.copy()
    for s0 in (100, 260, 420, 600, 800):
        values[s0 : s0 + 2] = 2.0
    return series.with_values(values)


@pytest.fixture(scope="module")
def report():
    planner = EstatePlanner(config=AutoConfig(n_jobs=0, detect_shock_calendar=False))
    planner.register("acme", "db1", "cpu", seasonal_series(seed=2), threshold=1000.0)
    planner.register("acme", "db1", "memory", seasonal_series(seed=3, trend=0.06), threshold=90.0)
    planner.register("beta", "legacy", "cpu", in_fault_series(), threshold=80.0)
    planner.register("beta", "app", "tx", seasonal_series(seed=4))  # no threshold
    return planner.run()


class TestRegistration:
    def test_keys_sorted_and_unique(self):
        planner = EstatePlanner()
        k1 = planner.register("b", "w", "cpu", seasonal_series())
        k2 = planner.register("a", "w", "cpu", seasonal_series())
        assert planner.keys() == [k2, k1]
        planner.register("b", "w", "cpu", seasonal_series())  # replace
        assert planner.size == 2

    def test_register_cluster_run(self):
        from repro.workloads import OlapExperiment

        run = OlapExperiment(days=3.0).build().run(days=3.0, seed=1).hourly()
        planner = EstatePlanner()
        keys = planner.register_cluster_run("acme", "olap", run, thresholds={"cpu": 80.0})
        assert len(keys) == 6  # 2 instances x 3 metrics
        assert all(isinstance(k, WorkloadKey) for k in keys)

    def test_entry_lookup(self):
        planner = EstatePlanner()
        key = planner.register("a", "w", "cpu", seasonal_series())
        assert planner.entry(key).key == key
        with pytest.raises(DataError):
            planner.entry(WorkloadKey("a", "w", "memory"))

    def test_bad_series_rejected(self):
        with pytest.raises(DataError):
            EstatePlanner().register("a", "w", "m", np.arange(10.0))

    def test_empty_estate_rejected(self):
        with pytest.raises(DataError):
            EstatePlanner().run()


class TestReport:
    def test_statuses(self, report):
        assert len(report.modelled) == 3
        assert len(report.in_fault) == 1
        assert report.failed == []

    def test_in_fault_workload_identified(self, report):
        assert report.in_fault[0].key.workload == "legacy"
        assert report.in_fault[0].advisory is None

    def test_advisories_only_with_thresholds(self, report):
        advised = report.ranked_advisories()
        assert {str(e.key) for e in advised} == {"acme/db1/cpu", "acme/db1/memory"}

    def test_ranked_by_urgency(self, report):
        advised = report.ranked_advisories()
        # memory trends toward 90 (breach expected); cpu threshold 1000 is safe.
        assert advised[0].key.metric == "memory"
        assert advised[0].advisory.severity is not BreachSeverity.NONE
        assert advised[-1].advisory.severity is BreachSeverity.NONE

    def test_modelled_entries_have_models(self, report):
        for entry in report.modelled:
            assert entry.model_label
            assert np.isfinite(entry.test_rmse)

    def test_summary_lines(self, report):
        lines = report.summary_lines()
        assert "4 workload metrics" in lines[0]
        assert any("in fault" in line for line in lines)

    def test_estate_trace(self, report):
        trace = report.trace
        assert trace is not None
        assert [e.name for e in trace.events][:1] == ["fan-out"]
        # One per-workload timing event per processed entry.
        assert sum(1 for e in trace.events if e.name == "workload") == 4
        assert trace.counters["workloads_modelled"] == 3
        assert trace.counters["workloads_in_fault"] == 1
        # Candidate counters from per-series selections are folded in.
        assert trace.counters["candidates_fitted"] >= 3

    def test_modelled_entries_carry_telemetry(self, report):
        for entry in report.modelled:
            assert entry.trace is not None
            assert entry.seconds > 0.0
        for entry in report.in_fault:
            assert entry.trace is None


class _BrokenExecutor(Executor):
    """An executor whose workers all died without producing values."""

    def run(self, fn, tasks):
        return [
            TaskReport(index=i, value=None, error="worker lost", worker="w1")
            for i, __ in enumerate(tasks)
        ]


def _small_estate(**planner_kwargs):
    planner = EstatePlanner(
        config=AutoConfig(technique="hes", n_jobs=1, detect_shock_calendar=False),
        **planner_kwargs,
    )
    planner.register("acme", "db1", "cpu", seasonal_series(n=400, seed=2), threshold=1000.0)
    planner.register("acme", "db1", "mem", seasonal_series(n=400, seed=3, trend=0.06), threshold=90.0)
    planner.register("beta", "app", "tx", seasonal_series(n=400, seed=4))
    return planner


class TestFanOut:
    def test_serial_and_pool_reports_identical(self):
        serial = _small_estate().report(executor=SerialExecutor())
        with PoolExecutor(max_workers=2) as pool:
            pooled = _small_estate().report(executor=pool)
        assert [e.key for e in serial.entries] == [e.key for e in pooled.entries]
        for s, p in zip(serial.entries, pooled.entries):
            assert s.status is p.status
            assert s.model_label == p.model_label
            assert s.test_rmse == pytest.approx(p.test_rmse, rel=1e-12)
            if s.advisory is None:
                assert p.advisory is None
            else:
                assert s.advisory.severity is p.advisory.severity
                assert s.advisory.first_breach_step == p.advisory.first_breach_step

    def test_pool_workers_credited_in_trace(self):
        with PoolExecutor(max_workers=2) as pool:
            report = _small_estate().report(executor=pool)
        assert sum(report.trace.worker_tasks.values()) == 3
        assert "serial" not in report.trace.worker_tasks

    def test_constructor_executor_is_default(self):
        with PoolExecutor(max_workers=2) as pool:
            report = _small_estate(executor=pool).report()
        assert len(report.modelled) == 3
        assert pool.tasks_dispatched == 3

    def test_executor_failure_marks_workload_failed(self):
        report = _small_estate().report(executor=_BrokenExecutor())
        assert len(report.failed) == 3
        for entry in report.failed:
            assert entry.status is WorkloadStatus.FAILED
            assert entry.detail == "executor: worker lost"
        assert report.trace.counters["workloads_failed"] == 3

    def test_run_is_report_alias(self):
        report = _small_estate().run()
        assert len(report.modelled) == 3


def _entry_fingerprint(entry):
    """What a report says about one workload, fit bits included."""
    fit = None
    if entry.outcome is not None:
        model = entry.outcome.model
        fit = (
            model.label(),
            model.spec,
            np.array([model.alpha, model.beta, model.gamma, model.phi, model.sigma2]).tobytes(),
            model.residuals.tobytes(),
            model.seasonal_state.tobytes(),
            entry.outcome.hes_rmse,
        )
    advisory = None
    if entry.advisory is not None:
        advisory = (entry.advisory.severity, entry.advisory.first_breach_step)
    rmse_bits = np.float64(entry.test_rmse).tobytes()  # NaN until modelled
    return (entry.key, entry.status, entry.model_label, rmse_bits, entry.detail, advisory, fit)


class TestLockstepReport:
    """A serial report fits every pending workload's HES variants in lockstep."""

    @staticmethod
    def _register(planner, k):
        if k == 7:
            series = in_fault_series(seed=k)
        elif k == 13:
            series = seasonal_series(n=30, seed=k)  # too short to split
        elif k == 21:
            series = seasonal_series(n=400, seed=k, level=5.0)  # crosses zero: no mul
        else:
            series = seasonal_series(n=400, seed=k, level=40.0 + k, trend=0.01 * (k % 3))
        planner.register("acme", f"db{k:02d}", "cpu", series, threshold=60.0 + k)

    @staticmethod
    def _planner():
        return EstatePlanner(
            config=AutoConfig(technique="hes", n_jobs=1, detect_shock_calendar=False)
        )

    def test_forty_keys_equal_their_per_key_reports(self):
        from repro.models import kernels

        planner = self._planner()
        for k in range(40):
            self._register(planner, k)
        before = kernels.stats_snapshot()
        report = planner.report()
        after = kernels.stats_snapshot()
        statuses = {e.key.workload: e.status for e in report.entries}
        assert statuses["db07"] is WorkloadStatus.IN_FAULT
        assert statuses["db13"] is WorkloadStatus.FAILED
        assert statuses["db21"] is WorkloadStatus.MODELLED
        assert len(report.modelled) == 38
        # Wide rounds ran as batched recursions.
        batched = "kernel_ets_recursion_batch_calls"
        assert after[batched] > before[batched]

        for entry in report.entries:
            alone = self._planner()
            self._register(alone, int(entry.key.workload[2:]))
            (single,) = alone.report().entries
            assert _entry_fingerprint(entry) == _entry_fingerprint(single)
            if entry.status is WorkloadStatus.MODELLED:
                # Each selected workload keeps its own trace and stage events.
                assert entry.trace is not None and entry.trace is not single.trace
                names = [e.name for e in entry.trace.events]
                assert names == [e.name for e in single.trace.events]

        # One workload event per selected key; their times add up to the fan-out's.
        workloads = [e for e in report.trace.events if e.name == "workload"]
        assert len(workloads) == 40
        fan_out = next(e for e in report.trace.events if e.name == "fan-out")
        assert sum(e.seconds for e in workloads) == pytest.approx(fan_out.seconds, rel=0.02)
        # Each smoothing-recursion call is counted once across the entries.
        for name in ("ets_recursion_calls", "ets_recursion_batch_calls",
                     "ets_recursion_batch_rows"):
            moved = after[f"kernel_{name}"] - before[f"kernel_{name}"]
            assert report.trace.counters.get(f"kernel_{name}", 0) == moved

    def test_pool_chunks_equal_the_serial_report(self):
        serial = self._planner()
        pooled = self._planner()
        for k in range(10):
            self._register(serial, k)
            self._register(pooled, k)
        with PoolExecutor(max_workers=2, chunksize=3) as pool:
            by_pool = pooled.report(executor=pool)
        by_serial = serial.report()
        assert [_entry_fingerprint(e) for e in by_pool.entries] == [
            _entry_fingerprint(e) for e in by_serial.entries
        ]
