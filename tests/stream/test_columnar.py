"""The columnar ingest fast path must be invisible except for speed.

``IngestBus.push_columns`` admits a whole delivery-ordered batch in one
vectorized pass; its contract is *sample-for-sample identity* with a
sequential ``push`` loop over the same rows — same counters, same buffer
contents in the same insertion order, same watermarks, and the exact
same sample at which capacity rejection begins. These tests drive both
paths with identical traffic (shuffles, intra-batch duplicates, NaN
bursts, frontier-late arrivals, capacity exhaustion mid-batch) and
require the resulting bus states to be indistinguishable, then repeat
the check end-to-end at the runtime level.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent import AgentSample
from repro.faults.plan import FaultInjector, FaultKind, FaultPlan, FaultRule
from repro.stream import IngestBus, StreamConfig, StreamRuntime, WindowAggregator

STEP = 900.0

KEYS = [("db1", "cpu"), ("db1", "mem"), ("db2", "cpu"), ("zz", "io")]


def sample(slot, value=1.0, instance="db1", metric="cpu"):
    return AgentSample(instance=instance, metric=metric, timestamp=slot * STEP, value=value)


def columns(batch):
    return (
        [s.instance for s in batch],
        [s.metric for s in batch],
        np.array([s.timestamp for s in batch], dtype=float),
        np.array([s.value for s in batch], dtype=float),
    )


def bus_state(bus):
    """Everything observable about the bus, insertion order included."""
    state = {}
    for key in bus.keys():
        buffer = bus.buffer(*key)
        state[key] = (
            list(buffer.slots.items()),
            buffer.min_slot,
            buffer.max_slot,
            buffer.frontier_slot,
            buffer.watermark_slot(bus.lateness_slots),
        )
    return state


def make_pair(capacity=1_000_000, allowed_lateness=0.0, warmup=(), consume_upto=None):
    """Two identically prepared buses: one for each intake shape."""
    pair = []
    for __ in range(2):
        bus = IngestBus(allowed_lateness=allowed_lateness, capacity=capacity)
        for s in warmup:
            bus.push(s)
        if consume_upto is not None:
            for key in bus.keys():
                bus.consume(key, consume_upto)
        pair.append(bus)
    return pair


def assert_columnar_matches_sequential(batch, **kwargs):
    col, seq = make_pair(**kwargs)
    got = col.push_columns(*columns(batch))
    want = sum(1 for s in batch if seq.push(s))
    assert got == want
    assert col.counters == seq.counters
    assert col.buffered == seq.buffered
    assert col.keys() == seq.keys()
    assert bus_state(col) == bus_state(seq)


# ---------------------------------------------------------------------------
# Property: push_columns ≡ a sequential push loop, sample for sample
# ---------------------------------------------------------------------------
def values_with_garbage():
    return st.one_of(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.just(float("nan")),
        st.just(float("inf")),
        st.just(float("-inf")),
    )


def batches():
    return st.lists(
        st.tuples(
            st.sampled_from(KEYS),
            st.integers(min_value=-3, max_value=14),
            values_with_garbage(),
        ),
        min_size=0,
        max_size=60,
    )


class TestEquivalenceProperty:
    @given(
        batches(),
        batches(),
        st.sampled_from([0.0, 1800.0, math.inf]),
        st.one_of(st.integers(min_value=1, max_value=12), st.just(1_000_000)),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_counter_and_slot_identical(
        self, warmup_rows, rows, lateness, capacity, consume
    ):
        """Shuffled keys, intra-batch duplicates, NaN bursts, late rows
        behind a finalised frontier and a capacity wall hit mid-batch:
        the columnar pass must land exactly where the scalar loop does."""
        warmup = [
            AgentSample(instance=k[0], metric=k[1], timestamp=slot * STEP, value=value)
            for k, slot, value in warmup_rows
        ]
        batch = [
            AgentSample(instance=k[0], metric=k[1], timestamp=slot * STEP, value=value)
            for k, slot, value in rows
        ]
        assert_columnar_matches_sequential(
            batch,
            capacity=capacity,
            allowed_lateness=lateness,
            warmup=warmup,
            consume_upto=4 if consume else None,
        )


class TestEquivalenceEdges:
    def test_empty_batch(self):
        bus = IngestBus()
        assert bus.push_columns([], [], np.array([]), np.array([])) == 0
        assert bus.counters == {}
        assert bus.keys() == []

    def test_half_slot_timestamps_round_half_even(self):
        # ts/step exactly *.5 — np.round and the scalar int(round(...))
        # must agree on banker's rounding, slot for slot.
        batch = [
            AgentSample("db1", "cpu", timestamp=(slot + 0.5) * STEP, value=1.0)
            for slot in range(6)
        ]
        assert_columnar_matches_sequential(batch)

    def test_first_wins_among_intra_batch_duplicates(self):
        batch = [sample(3, 111.0), sample(3, 222.0), sample(3, 333.0)]
        col, seq = make_pair()
        assert col.push_columns(*columns(batch)) == 1
        for s in batch:
            seq.push(s)
        assert col.buffer("db1", "cpu").slots[3] == 111.0
        assert col.counters == seq.counters
        assert col.counters["samples_duplicate"] == 2

    def test_capacity_rejection_starts_at_the_exact_sample(self):
        batch = [sample(i, float(i)) for i in range(10)]
        col, seq = make_pair(capacity=4)
        assert col.push_columns(*columns(batch)) == 4
        for s in batch:
            seq.push(s)
        assert bus_state(col) == bus_state(seq)
        assert col.counters["samples_rejected_backpressure"] == 6
        assert list(col.buffer("db1", "cpu").slots) == [0, 1, 2, 3]

    def test_follower_of_rejected_winner_counts_as_backpressure(self):
        # Capacity 1: slot 5's first copy is rejected by the full buffer,
        # so its intra-batch duplicate is backpressure too — the scalar
        # ladder never reaches the dedup check for a slot that was never
        # buffered.
        batch = [sample(4, 1.0), sample(5, 2.0), sample(5, 3.0)]
        assert_columnar_matches_sequential(batch, capacity=1)

    def test_follower_of_accepted_winner_counts_as_duplicate(self):
        batch = [sample(4, 1.0), sample(4, 2.0)]
        assert_columnar_matches_sequential(batch, capacity=1)

    def test_nan_timestamp_raises_like_scalar_path(self):
        bad = AgentSample("db1", "cpu", timestamp=float("nan"), value=1.0)
        col, seq = make_pair()
        with pytest.raises(ValueError):
            seq.push(bad)
        with pytest.raises(ValueError):
            col.push_columns(*columns([bad]))

    def test_nonfinite_value_with_nan_timestamp_is_skipped(self):
        # The scalar ladder rejects on the value before touching the
        # timestamp; the columnar mask must do the same.
        bad = AgentSample("db1", "cpu", timestamp=float("nan"), value=float("nan"))
        assert_columnar_matches_sequential([bad])

    def test_out_of_order_counting_matches(self):
        batch = [sample(s, float(s)) for s in [5, 2, 8, 3, 8, 1, 9, 0]]
        assert_columnar_matches_sequential(batch)

    def test_push_chunk_is_the_columnar_edge(self):
        batch = [sample(i, float(i)) for i in range(9)]
        col, seq = make_pair()
        assert col.push_chunk(batch) == 9
        for s in batch:
            seq.push(s)
        assert col.counters == seq.counters
        assert bus_state(col) == bus_state(seq)


# ---------------------------------------------------------------------------
# Dirty-key finalisation
# ---------------------------------------------------------------------------
class TestDirtyKeys:
    def test_advance_visits_only_touched_keys(self):
        bus = IngestBus()
        agg = WindowAggregator(bus)
        batch = [
            sample(i, 1.0, instance=f"db{j}") for j in range(20) for i in range(5)
        ]
        bus.push_columns(*columns(batch))
        assert len(agg.advance()) == 20  # one window per key
        assert bus.take_dirty() == []  # drained by the advance
        bus.push_columns(*columns([sample(i, 2.0, instance="db3") for i in range(5, 9)]))
        closed = agg.advance()
        assert [w.instance for w in closed] == ["db3"]
        assert bus.take_dirty() == []

    def test_idle_advance_closes_nothing(self):
        bus = IngestBus()
        agg = WindowAggregator(bus)
        bus.push_columns(*columns([sample(i) for i in range(5)]))
        assert len(agg.advance()) == 1
        assert agg.advance() == []
        assert agg.advance() == []

    def test_anchor_rebase_on_columnar_late_arrival(self):
        """The PR-3 regression scenario, driven through push_columns: an
        in-budget arrival below min_slot must re-base the grid anchor
        even though the watermark does not move."""
        bus = IngestBus(allowed_lateness=1800.0)
        agg = WindowAggregator(bus)
        bus.push_columns(*columns([sample(10, 10.0)]))
        assert agg.advance() == []
        bus.push_columns(*columns([sample(6, 1000.0)]))  # earlier, in budget
        bus.push_columns(*columns([sample(i, float(i)) for i in range(11, 17)]))
        closed = agg.advance()
        assert closed[0].start == 6 * STEP
        assert closed[0].value == pytest.approx(1000.0)
        assert closed[1].start == 10 * STEP
        assert closed[1].n_samples == 4

    def test_multi_window_burst_closes_in_one_pass(self):
        bus = IngestBus()
        agg = WindowAggregator(bus)
        values = np.arange(17.0)
        bus.push_columns(*columns([sample(i, float(v)) for i, v in enumerate(values)]))
        closed = agg.advance()
        assert [w.start for w in closed] == [0.0, 3600.0, 7200.0, 10800.0]
        assert [w.value for w in closed] == [
            pytest.approx(np.mean(values[lo : lo + 4])) for lo in range(0, 16, 4)
        ]
        assert agg.counters["windows_closed"] == 4
        assert agg.counters["samples_aggregated"] == 16


# ---------------------------------------------------------------------------
# keys() caching
# ---------------------------------------------------------------------------
class TestKeysCache:
    def test_keys_sorted_and_refreshed_on_new_key(self):
        bus = IngestBus()
        bus.push(sample(0, instance="zz"))
        assert bus.keys() == [("zz", "cpu")]
        assert bus.keys() == [("zz", "cpu")]  # served from the cache
        bus.push(sample(0, instance="aa"))
        assert bus.keys() == [("aa", "cpu"), ("zz", "cpu")]

    def test_keys_cache_invalidated_on_evict_and_readmit(self):
        bus = IngestBus()
        bus.push_chunk([sample(0, instance="a"), sample(0, instance="b")])
        assert bus.keys() == [("a", "cpu"), ("b", "cpu")]
        assert bus.evict("a", "cpu") == 1
        assert bus.keys() == [("b", "cpu")]
        bus.push(sample(3, instance="a"))  # same key id, fresh buffer
        assert bus.keys() == [("a", "cpu"), ("b", "cpu")]
        assert bus.buffer("a", "cpu").min_slot == 3

    def test_repeated_keys_calls_do_not_resort(self, monkeypatch):
        bus = IngestBus()
        bus.push_chunk([sample(0, instance=f"db{i}") for i in range(10)])
        assert len(bus.keys()) == 10
        import builtins

        def boom(*args, **kwargs):  # pragma: no cover - only on regression
            raise AssertionError("keys() re-sorted a stable estate")

        monkeypatch.setattr(builtins, "sorted", boom)
        assert len(bus.keys()) == 10  # cache hit: no sorted() call


# ---------------------------------------------------------------------------
# Delivery faults at the column edge
# ---------------------------------------------------------------------------
def push_per_sample(bus, batch):
    """The oracle: each row through ``on_sample``, then a sequential push."""
    accepted = 0
    for s in batch:
        for delivered in bus.injector.on_sample("ingest.deliver", s):
            accepted += bus.push(delivered)
    return accepted


def deliver_rules(*rules):
    return tuple(FaultRule(site="ingest.deliver", **rule) for rule in rules)


#: One plan per delivery fault kind, plus all of them at once.
DELIVERY_PLANS = (
    deliver_rules(dict(kind=FaultKind.DROP_SAMPLE, every=4)),
    deliver_rules(dict(kind=FaultKind.DUPLICATE_SAMPLE, probability=0.3)),
    deliver_rules(dict(kind=FaultKind.CORRUPT_VALUE, probability=0.2)),
    deliver_rules(dict(kind=FaultKind.CLOCK_SKEW, probability=0.3, param=-1800.0)),
    deliver_rules(dict(kind=FaultKind.NAN_BURST, every=9, param=5)),
    deliver_rules(
        dict(kind=FaultKind.NAN_BURST, probability=0.05, param=4),
        dict(kind=FaultKind.DROP_SAMPLE, probability=0.1),
        dict(kind=FaultKind.DUPLICATE_SAMPLE, probability=0.1),
        dict(kind=FaultKind.CORRUPT_VALUE, probability=0.1),
        dict(kind=FaultKind.CLOCK_SKEW, probability=0.1, param=2700.0),
    ),
)


class TestFaultGating:
    def test_plan_without_deliver_rules_keeps_fast_path(self):
        plan = FaultPlan(
            rules=(FaultRule(site="executor.submit", kind=FaultKind.WORKER_CRASH, every=2),),
            seed=5,
        )
        injector = FaultInjector(plan)
        assert injector.active
        bus = IngestBus(injector=injector)
        bus.push_columns(*columns([sample(i) for i in range(6)]))
        bus.push_chunk([sample(i) for i in range(6, 12)])
        # The hook handed the columns through untouched: no fault counters.
        assert injector.counters == {}
        assert bus.counters["samples_accepted"] == 12

    def test_deliver_rules_force_the_per_sample_path(self):
        """``push_chunk`` under a delivery plan matches the per-sample oracle."""

        def build():
            plan = FaultPlan(
                rules=deliver_rules(dict(kind=FaultKind.DUPLICATE_SAMPLE, every=3)),
                seed=11,
            )
            return IngestBus(injector=FaultInjector(plan))

        batch = [sample(i, float(i)) for i in range(12)]
        via_chunk, oracle = build(), build()
        assert via_chunk.push_chunk(batch) == push_per_sample(oracle, batch)
        assert via_chunk.counters == oracle.counters
        assert via_chunk.injector.counters == oracle.injector.counters
        assert bus_state(via_chunk) == bus_state(oracle)
        assert via_chunk.counters["samples_duplicate"] > 0

    def test_push_columns_reconstructs_samples_for_deliver_faults(self):
        """``push_columns`` under a delivery plan matches the per-sample
        oracle batch after batch: counters, buffers and closed windows
        (compared by repr, so empty NaN-valued windows match)."""
        for rules in DELIVERY_PLANS:
            plan = FaultPlan(rules=rules, seed=3)
            columnar = IngestBus(allowed_lateness=1800.0, injector=FaultInjector(plan))
            oracle = IngestBus(allowed_lateness=1800.0, injector=FaultInjector(plan))
            agg_columnar, agg_oracle = WindowAggregator(columnar), WindowAggregator(oracle)
            rng = np.random.default_rng(7)
            for lo in range(0, 48, 6):
                batch = [
                    sample(slot, float(rng.normal(50.0, 5.0)), instance=instance)
                    for slot in range(lo, lo + 6)
                    for instance in ("db1", "db2", "db3")
                ]
                rng.shuffle(batch)
                accepted = columnar.push_columns(*columns(batch))
                assert accepted == push_per_sample(oracle, batch), rules
                assert repr(agg_columnar.advance()) == repr(agg_oracle.advance()), rules
                assert columnar.counters == oracle.counters, rules
                assert columnar.injector.counters == oracle.injector.counters, rules
                assert bus_state(columnar) == bus_state(oracle), rules
            assert repr(agg_columnar.flush()) == repr(agg_oracle.flush()), rules
            assert columnar.injector.counters.get("faults_injected", 0) > 0, rules


# ---------------------------------------------------------------------------
# End to end: the runtime on the columnar path vs the per-sample path
# ---------------------------------------------------------------------------
class TestRuntimeParity:
    def _traffic(self):
        rng = np.random.default_rng(23)
        samples = []
        for instance in ("db1", "db2"):
            values = rng.normal(50.0, 8.0, 30 * 4)
            samples.extend(
                AgentSample(instance, "cpu", timestamp=i * STEP, value=float(v))
                for i, v in enumerate(values)
            )
        return samples

    def _run(self, force_per_sample):
        runtime = StreamRuntime(config=StreamConfig(seed=9, jitter_seconds=600.0))
        if force_per_sample:
            bus = runtime.bus
            bus.push_chunk = lambda chunk: sum(1 for s in chunk if bus.push(s))
        runtime.run(self._traffic())
        runtime.finish()
        return runtime

    def test_telemetry_and_series_byte_identical(self):
        fast = self._run(force_per_sample=False)
        slow = self._run(force_per_sample=True)
        assert fast.telemetry() == slow.telemetry()
        for instance in ("db1", "db2"):
            a = fast.aggregator.series(instance, "cpu")
            b = slow.aggregator.series(instance, "cpu")
            assert a.start == b.start
            assert a.values.tobytes() == b.values.tobytes()
