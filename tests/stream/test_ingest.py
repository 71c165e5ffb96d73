"""Tests for the ingest bus and the injectable clocks."""

import math

import pytest

from repro.agent import AgentSample
from repro.core import Frequency
from repro.exceptions import DataError
from repro.stream import Clock, IngestBus, ManualClock, SystemClock


def sample(slot, value=1.0, instance="db1", metric="cpu"):
    return AgentSample(instance=instance, metric=metric, timestamp=slot * 900.0, value=value)


class TestClocks:
    def test_manual_clock_advances(self):
        clock = ManualClock(start=10.0)
        assert clock.now() == 10.0
        assert clock.advance(5.0) == 15.0
        assert clock.advance_to(100.0) == 100.0
        # advance_to never rewinds
        assert clock.advance_to(50.0) == 100.0

    def test_manual_clock_rejects_negative_advance(self):
        with pytest.raises(DataError):
            ManualClock().advance(-1.0)

    def test_clock_protocol(self):
        assert isinstance(ManualClock(), Clock)
        assert isinstance(SystemClock(), Clock)


class TestPush:
    def test_accepts_and_buffers(self):
        bus = IngestBus()
        assert bus.push(sample(0)) is True
        assert bus.push(sample(1)) is True
        assert bus.buffered == 2
        assert bus.counters["samples_accepted"] == 2
        assert bus.keys() == [("db1", "cpu")]

    def test_duplicate_dropped_first_wins(self):
        bus = IngestBus()
        bus.push(sample(3, value=10.0))
        assert bus.push(sample(3, value=99.0)) is False
        assert bus.counters["samples_duplicate"] == 1
        assert bus.buffer("db1", "cpu").slots[3] == 10.0

    def test_out_of_order_accepted_and_counted(self):
        bus = IngestBus()
        bus.push(sample(5))
        assert bus.push(sample(2)) is True
        assert bus.counters["samples_out_of_order"] == 1
        assert bus.buffer("db1", "cpu").min_slot == 2

    def test_nonfinite_rejected(self):
        bus = IngestBus()
        assert bus.push(sample(0, value=float("nan"))) is False
        assert bus.push(sample(1, value=float("inf"))) is False
        assert bus.counters["samples_nonfinite"] == 2
        assert bus.buffered == 0

    def test_timestamp_snapped_to_grid(self):
        bus = IngestBus()
        bus.push(AgentSample("db1", "cpu", timestamp=905.0, value=1.0))
        assert 1 in bus.buffer("db1", "cpu").slots

    def test_keys_are_isolated(self):
        bus = IngestBus()
        bus.push(sample(0, instance="db1"))
        bus.push(sample(0, instance="db2"))
        bus.push(sample(0, metric="memory"))
        assert len(bus.keys()) == 3
        with pytest.raises(DataError):
            bus.buffer("db9", "cpu")


class TestBackpressure:
    def test_push_rejected_at_capacity(self):
        bus = IngestBus(capacity=3)
        assert bus.push_chunk([sample(i) for i in range(5)]) == 3
        assert bus.counters["samples_rejected_backpressure"] == 2
        assert bus.buffered == 3

    def test_consume_releases_capacity(self):
        bus = IngestBus(capacity=2)
        bus.push_chunk([sample(0), sample(1), sample(2)])
        assert bus.buffered == 2
        bus.consume(("db1", "cpu"), upto_slot=2)
        assert bus.buffered == 0
        assert bus.push(sample(2)) is True

    def test_invalid_capacity_rejected(self):
        with pytest.raises(DataError):
            IngestBus(capacity=0)


class TestWatermarks:
    def test_watermark_follows_newest_sample(self):
        bus = IngestBus(allowed_lateness=900.0)
        assert bus.watermark("db1", "cpu") is None
        bus.push(sample(4))
        assert bus.watermark("db1", "cpu") == 4 * 900.0 - 900.0

    def test_watermark_never_regresses_on_late_sample(self):
        bus = IngestBus(allowed_lateness=0.0)
        bus.push(sample(8))
        bus.push(sample(2))  # late but in-budget: buffered, watermark unmoved
        assert bus.watermark("db1", "cpu") == 8 * 900.0

    def test_infinite_lateness_never_advances(self):
        bus = IngestBus(allowed_lateness=math.inf)
        bus.push(sample(1000))
        assert bus.watermark("db1", "cpu") == -math.inf

    def test_negative_lateness_rejected(self):
        with pytest.raises(DataError):
            IngestBus(allowed_lateness=-1.0)


class TestLateDrops:
    def test_sample_below_frontier_dropped(self):
        bus = IngestBus()
        bus.push_chunk([sample(0), sample(1), sample(2), sample(3)])
        bus.consume(("db1", "cpu"), upto_slot=4)  # first hour finalised
        assert bus.push(sample(2, value=7.0)) is False
        assert bus.counters["samples_late_dropped"] == 1

    def test_consume_takes_only_below_limit(self):
        bus = IngestBus()
        bus.push_chunk([sample(i) for i in range(6)])
        taken = bus.consume(("db1", "cpu"), upto_slot=4)
        assert sorted(taken) == [0, 1, 2, 3]
        assert sorted(bus.buffer("db1", "cpu").slots) == [4, 5]


class TestHigherFrequencies:
    def test_hourly_polling_grid(self):
        bus = IngestBus(raw_frequency=Frequency.HOURLY)
        bus.push(AgentSample("db1", "cpu", timestamp=3600.0, value=2.0))
        assert 1 in bus.buffer("db1", "cpu").slots
