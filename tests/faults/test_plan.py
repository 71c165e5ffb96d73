"""Tests for the fault plan: rules, determinism, and the hook-point API."""

import math

import pytest

from repro.agent.agent import AgentSample
from repro.exceptions import DataError
from repro.faults.plan import (
    KNOWN_SITES,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultRule,
    InjectedFault,
)


def sample(value=5.0, timestamp=100.0):
    return AgentSample(instance="db1", metric="cpu", timestamp=timestamp, value=value)


class TestFaultRuleValidation:
    def test_unknown_site(self):
        with pytest.raises(DataError, match="unknown fault site"):
            FaultRule(site="agent.polll", kind=FaultKind.DROP_SAMPLE, every=1)

    def test_probability_range(self):
        with pytest.raises(DataError, match="probability"):
            FaultRule(site="agent.poll", kind=FaultKind.TRANSIENT_ERROR, probability=1.5)

    def test_rule_that_can_never_fire(self):
        with pytest.raises(DataError, match="can never fire"):
            FaultRule(site="agent.poll", kind=FaultKind.TRANSIENT_ERROR)

    def test_negative_every(self):
        with pytest.raises(DataError, match="every"):
            FaultRule(site="agent.poll", kind=FaultKind.TRANSIENT_ERROR, every=-1)

    def test_negative_start(self):
        with pytest.raises(DataError, match="start"):
            FaultRule(site="agent.poll", kind=FaultKind.TRANSIENT_ERROR, every=1, start=-1)

    def test_limit_below_one(self):
        with pytest.raises(DataError, match="limit"):
            FaultRule(site="agent.poll", kind=FaultKind.TRANSIENT_ERROR, every=1, limit=0)

    def test_non_finite_param(self):
        with pytest.raises(DataError, match="param"):
            FaultRule(
                site="agent.sample",
                kind=FaultKind.CLOCK_SKEW,
                every=1,
                param=math.inf,
            )

    def test_plan_rejects_non_rules(self):
        with pytest.raises(DataError, match="FaultRule"):
            FaultPlan(rules=("not a rule",))


class TestEmptyPlan:
    """The documented no-op: an empty plan must be indistinguishable from none."""

    def test_empty_plan_is_inactive(self):
        injector = FaultInjector(FaultPlan())
        assert FaultPlan().empty
        assert not injector.active

    def test_hooks_short_circuit(self):
        injector = FaultInjector()
        s = sample()
        assert injector.on_sample("agent.sample", s) == [s]
        injector.check_call("repository.write")  # does not raise
        assert injector.task_outcome() is None
        assert injector.counters == {}


class TestSchedules:
    def test_every_start_limit(self):
        rule = FaultRule(
            site="agent.poll", kind=FaultKind.TRANSIENT_ERROR, every=3, start=2, limit=2
        )
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        raised = []
        for event in range(12):
            try:
                injector.check_call("agent.poll")
                raised.append(False)
            except InjectedFault:
                raised.append(True)
        # Eligible from event 2, every 3rd event, at most twice: 2 and 5.
        assert [i for i, hit in enumerate(raised) if hit] == [2, 5]
        assert injector.counters["faults_injected"] == 2

    def test_sites_do_not_share_counters(self):
        rule = FaultRule(site="agent.poll", kind=FaultKind.TRANSIENT_ERROR, every=2)
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        # Events at other sites must not advance agent.poll's schedule.
        injector.on_sample("agent.sample", sample())
        injector.check_call("repository.write")
        with pytest.raises(InjectedFault):
            injector.check_call("agent.poll")  # event 0 fires (0 % 2 == 0)

    def test_probabilistic_rule_is_deterministic_per_seed(self):
        def firing_pattern(seed):
            rule = FaultRule(
                site="executor.submit", kind=FaultKind.TRANSIENT_ERROR, probability=0.5
            )
            injector = FaultInjector(FaultPlan(rules=(rule,), seed=seed))
            return [injector.task_outcome() for __ in range(100)]

        assert firing_pattern(3) == firing_pattern(3)
        assert firing_pattern(3) != firing_pattern(4)

    def test_deterministic_rule_does_not_shift_probabilistic_draws(self):
        """Every probabilistic rule draws once per event, hit or not."""
        prob = FaultRule(
            site="executor.submit", kind=FaultKind.TRANSIENT_ERROR, probability=0.5
        )
        sched = FaultRule(site="executor.submit", kind=FaultKind.WORKER_CRASH, every=2)

        alone = FaultInjector(FaultPlan(rules=(prob,), seed=11))
        mixed = FaultInjector(FaultPlan(rules=(sched, prob), seed=11))
        pattern_alone = [alone.task_outcome() is not None for __ in range(80)]
        # In the mixed plan the crash rule wins on even events; the error
        # rule's own firing pattern must still match the solo plan.
        for __ in range(80):
            mixed.task_outcome()
        errors_mixed = mixed.counters.get("fault_transient_error", 0)
        assert sum(pattern_alone) == alone.counters["fault_transient_error"]
        assert errors_mixed == sum(pattern_alone)


class TestSampleHooks:
    def test_drop(self):
        rule = FaultRule(site="agent.sample", kind=FaultKind.DROP_SAMPLE, every=1, limit=1)
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        assert injector.on_sample("agent.sample", sample()) == []
        s = sample()
        assert injector.on_sample("agent.sample", s) == [s]
        assert injector.counters["fault_drop_sample"] == 1

    def test_duplicate(self):
        rule = FaultRule(
            site="agent.sample", kind=FaultKind.DUPLICATE_SAMPLE, every=1, limit=1
        )
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        out = injector.on_sample("agent.sample", sample())
        assert len(out) == 2
        assert out[0] == out[1]

    def test_corrupt_value_with_param(self):
        rule = FaultRule(
            site="ingest.deliver", kind=FaultKind.CORRUPT_VALUE, every=1, param=10.0
        )
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        (out,) = injector.on_sample("ingest.deliver", sample(value=5.0))
        assert out.value == 50.0

    def test_corrupt_value_default_scale(self):
        rule = FaultRule(site="ingest.deliver", kind=FaultKind.CORRUPT_VALUE, every=1)
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        (out,) = injector.on_sample("ingest.deliver", sample(value=2.0))
        assert out.value == 2000.0

    def test_nan_burst_spans_following_samples(self):
        rule = FaultRule(
            site="ingest.deliver", kind=FaultKind.NAN_BURST, every=1, limit=1, param=3
        )
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        values = []
        for __ in range(4):
            (out,) = injector.on_sample("ingest.deliver", sample(value=7.0))
            values.append(out.value)
        assert all(math.isnan(v) for v in values[:3])
        assert values[3] == 7.0
        assert injector.counters["fault_nan_burst_samples"] == 3

    def test_clock_skew(self):
        rule = FaultRule(
            site="agent.sample", kind=FaultKind.CLOCK_SKEW, every=1, param=-60.0
        )
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        (out,) = injector.on_sample("agent.sample", sample(timestamp=900.0))
        assert out.timestamp == 840.0
        assert out.value == 5.0


#: Delivery rule sets the column hook must replay exactly as on_sample does.
DELIVERY_CASES = {
    "drop": (FaultRule(site="ingest.deliver", kind=FaultKind.DROP_SAMPLE, probability=0.3),),
    "duplicate": (
        FaultRule(site="ingest.deliver", kind=FaultKind.DUPLICATE_SAMPLE, every=3),
    ),
    "corrupt": (
        FaultRule(
            site="ingest.deliver", kind=FaultKind.CORRUPT_VALUE, probability=0.25, param=40.0
        ),
    ),
    "clock-skew": (
        FaultRule(site="ingest.deliver", kind=FaultKind.CLOCK_SKEW, probability=0.3, param=450.0),
    ),
    # Fires on events 5 and 12: the first burst covers rows 5-8, so it
    # starts in the first batch of 7 and ends in the second.
    "nan-burst-across-batches": (
        FaultRule(site="ingest.deliver", kind=FaultKind.NAN_BURST, every=7, start=5, param=4),
    ),
    "mixed": (
        FaultRule(site="ingest.deliver", kind=FaultKind.NAN_BURST, probability=0.1, param=3),
        FaultRule(site="ingest.deliver", kind=FaultKind.DROP_SAMPLE, probability=0.2),
        FaultRule(site="ingest.deliver", kind=FaultKind.DUPLICATE_SAMPLE, probability=0.2),
        FaultRule(site="ingest.deliver", kind=FaultKind.CORRUPT_VALUE, probability=0.2),
        FaultRule(site="ingest.deliver", kind=FaultKind.CLOCK_SKEW, probability=0.2, param=-60.0),
    ),
}


def _rows(instances, metrics, timestamps, values):
    """Delivered rows, comparable (NaN values compare equal as 'nan')."""
    return [
        (i, m, float(t), "nan" if math.isnan(v) else float(v))
        for i, m, t, v in zip(instances, metrics, timestamps, values)
    ]


class TestColumnHook:
    """``on_columns`` is ``on_sample`` run row by row over a batch."""

    @pytest.mark.parametrize("case", sorted(DELIVERY_CASES))
    def test_matches_on_sample_row_by_row(self, case):
        plan = FaultPlan(rules=DELIVERY_CASES[case], seed=5)
        columnar, scalar = FaultInjector(plan), FaultInjector(plan)
        batches = [
            [sample(value=float(10 * b + i), timestamp=900.0 * (10 * b + i)) for i in range(7)]
            for b in range(3)
        ]
        for batch in batches:
            got = columnar.on_columns(
                "ingest.deliver",
                [s.instance for s in batch],
                [s.metric for s in batch],
                [s.timestamp for s in batch],
                [s.value for s in batch],
            )
            delivered = [d for s in batch for d in scalar.on_sample("ingest.deliver", s)]
            want = _rows(
                [d.instance for d in delivered],
                [d.metric for d in delivered],
                [d.timestamp for d in delivered],
                [d.value for d in delivered],
            )
            assert _rows(*got) == want
            assert columnar.counters == scalar.counters
        assert columnar.counters.get("faults_injected", 0) > 0

    def test_nan_burst_carries_into_the_next_batch(self):
        plan = FaultPlan(rules=DELIVERY_CASES["nan-burst-across-batches"])
        injector = FaultInjector(plan)
        columns = (["db1"] * 7, ["cpu"] * 7, [0.0] * 7, [1.0] * 7)
        __, __, __, first = injector.on_columns("ingest.deliver", *columns)
        __, __, __, second = injector.on_columns("ingest.deliver", *columns)
        assert [math.isnan(v) for v in first] == [False] * 5 + [True] * 2
        assert [math.isnan(v) for v in second] == [True] * 2 + [False] * 3 + [True] * 2

    def test_site_without_rules_returns_input_untouched(self):
        rule = FaultRule(site="executor.submit", kind=FaultKind.WORKER_CRASH, every=1)
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        columns = (["db1"], ["cpu"], [0.0], [float("nan")])
        out = injector.on_columns("ingest.deliver", *columns)
        assert all(a is b for a, b in zip(out, columns))
        assert injector.counters == {}


class TestCallHooks:
    def test_transient_error_default_exception(self):
        rule = FaultRule(site="agent.poll", kind=FaultKind.TRANSIENT_ERROR, every=1)
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        with pytest.raises(InjectedFault):
            injector.check_call("agent.poll")

    def test_transient_error_custom_factory(self):
        rule = FaultRule(site="repository.write", kind=FaultKind.TRANSIENT_ERROR, every=1)
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        with pytest.raises(OSError, match="boom"):
            injector.check_call("repository.write", lambda: OSError("boom"))

    def test_injected_fault_is_not_a_library_error(self):
        from repro.exceptions import CapacityPlanningError

        assert not issubclass(InjectedFault, CapacityPlanningError)

    def test_task_outcomes(self):
        rules = (
            FaultRule(site="executor.submit", kind=FaultKind.WORKER_CRASH, every=1, limit=1),
            FaultRule(
                site="executor.submit", kind=FaultKind.SLOW_CALL, every=1, start=1, limit=1
            ),
            FaultRule(
                site="executor.submit",
                kind=FaultKind.TRANSIENT_ERROR,
                every=1,
                start=2,
                limit=1,
            ),
        )
        injector = FaultInjector(FaultPlan(rules=rules))
        assert injector.task_outcome() == "crash"
        assert injector.task_outcome() == "slow"
        assert injector.task_outcome() == "error"
        assert injector.task_outcome() is None

    def test_known_sites_cover_the_runtime(self):
        assert KNOWN_SITES == {
            "agent.poll",
            "agent.sample",
            "repository.write",
            "ingest.deliver",
            "executor.submit",
        }
