"""Tests for watermark-driven window aggregation."""

import math

import numpy as np
import pytest

from repro.agent import AgentSample
from repro.core import Frequency
from repro.exceptions import DataError, FrequencyError
from repro.stream import IngestBus, WindowAggregator


def sample(slot, value=1.0, instance="db1", metric="cpu"):
    return AgentSample(instance=instance, metric=metric, timestamp=slot * 900.0, value=value)


def make(allowed_lateness=0.0, **kwargs):
    bus = IngestBus(allowed_lateness=allowed_lateness)
    return bus, WindowAggregator(bus, **kwargs)


class TestClosing:
    def test_window_closes_when_watermark_passes_end(self):
        bus, agg = make()
        bus.push_chunk([sample(i, value=float(i)) for i in range(4)])
        assert agg.advance() == []  # watermark sits at slot 3: hour not over
        bus.push(sample(4, value=4.0))
        closed = agg.advance()
        assert len(closed) == 1
        w = closed[0]
        assert w.start == 0.0
        assert w.value == pytest.approx(np.mean([0, 1, 2, 3]))
        assert w.n_samples == 4 and w.expected == 4 and w.complete

    def test_lateness_budget_delays_closing(self):
        bus, agg = make(allowed_lateness=1800.0)  # two slots of grace
        bus.push_chunk([sample(i) for i in range(5)])
        assert agg.advance() == []  # watermark = 4 - 2 = slot 2 < end 4
        bus.push(sample(6))
        assert len(agg.advance()) == 1

    def test_late_sample_within_budget_lands_in_its_window(self):
        bus, agg = make(allowed_lateness=1800.0)
        bus.push_chunk([sample(0, 1.0), sample(1, 1.0), sample(3, 1.0), sample(4, 1.0)])
        agg.advance()
        bus.push(sample(2, 9.0))  # late, but window 0 still open
        bus.push(sample(6, 1.0))  # move the watermark past slot 4
        closed = agg.advance()
        assert closed[0].value == pytest.approx(np.mean([1, 1, 9, 1]))

    def test_windows_close_left_to_right(self):
        bus, agg = make()
        bus.push_chunk([sample(i, float(i)) for i in range(13)])
        closed = agg.advance()
        assert [w.start for w in closed] == [0.0, 3600.0, 7200.0]
        assert agg.windows_closed("db1", "cpu") == 3

    def test_missing_window_emitted_as_nan(self):
        bus, agg = make()
        bus.push_chunk([sample(i) for i in range(4)])  # hour 0
        bus.push_chunk([sample(i) for i in range(8, 13)])  # hour 2 (hour 1 missed)
        closed = agg.advance()
        assert len(closed) == 3
        assert math.isnan(closed[1].value)
        assert closed[1].n_samples == 0
        assert agg.counters["windows_empty"] == 1

    def test_partial_window_uses_present_slots(self):
        bus, agg = make()
        bus.push_chunk([sample(0, 2.0), sample(2, 4.0), sample(4, 0.0), sample(5, 0.0)])
        bus.push(sample(8, 0.0))
        closed = agg.advance()
        assert closed[0].value == pytest.approx(3.0)
        assert closed[0].n_samples == 2
        assert not closed[0].complete
        assert agg.counters["windows_partial"] >= 1

    def test_anchor_tracks_earlier_arrival_until_first_close(self):
        """Regression: an out-of-order sample arriving *before* the first
        advance()'s earliest slot must re-anchor the grid (the batch
        path's t0), not get swept into a misaligned first window."""
        bus, agg = make(allowed_lateness=1800.0)
        bus.push(sample(10, 10.0))
        assert agg.advance() == []  # nothing closable: anchor must not freeze
        assert bus.push(sample(6, 1000.0))  # earlier, in-budget, accepted
        bus.push_chunk([sample(i, float(i)) for i in range(11, 17)])
        closed = agg.advance()
        first, second = closed[0], closed[1]
        assert first.start == 6 * 900.0  # batch grid anchors at slot 6
        assert first.n_samples == 1 and first.expected == 4
        assert first.value == pytest.approx(1000.0)
        assert second.start == 10 * 900.0
        assert second.n_samples == 4
        assert second.value == pytest.approx(np.mean([10, 11, 12, 13]))

    def test_closed_window_never_absorbs_pre_window_slots(self):
        """A window's mean covers exactly its own span: any buffered slot
        below the window start is dropped as late, not folded in."""
        bus, agg = make(allowed_lateness=0.0)
        bus.push_chunk([sample(i, 1.0) for i in range(5)])
        assert len(agg.advance()) == 1  # window [0, 4) closed, frontier at 4
        # Sneak a pre-frontier slot straight into the buffer, bypassing
        # push()'s frontier guard, to prove the close path also defends.
        bus.buffer("db1", "cpu").slots[2] = 999.0
        bus._buffered += 1
        bus.push_chunk([sample(i, 1.0) for i in range(5, 9)])
        closed = agg.advance()
        assert len(closed) == 1
        assert closed[0].n_samples == 4
        assert closed[0].value == pytest.approx(1.0)
        assert bus.counters["samples_late_dropped"] == 1
        assert bus.buffered == 1  # slot 8 waits for the next window


class TestFlush:
    def test_flush_closes_fully_covered_trailing_windows(self):
        bus, agg = make()
        bus.push_chunk([sample(i, 1.0) for i in range(8)])  # exactly two hours
        assert len(agg.advance()) == 1  # watermark only covers hour 0
        flushed = agg.flush()
        assert [w.start for w in flushed] == [3600.0]

    def test_flush_discards_partial_tail_like_batch_aggregate(self):
        bus, agg = make()
        bus.push_chunk([sample(i, 1.0) for i in range(10)])  # 2.5 hours
        agg.flush()
        assert agg.windows_closed("db1", "cpu") == 2
        assert agg.counters["samples_discarded_at_flush"] == 2
        assert bus.buffered == 0

    def test_flush_on_empty_bus_is_noop(self):
        __, agg = make()
        assert agg.flush() == []


class TestSeries:
    def test_series_rebuilds_hourly_trace(self):
        bus, agg = make()
        values = np.arange(12.0)
        bus.push_chunk([sample(i, float(v)) for i, v in enumerate(values)])
        agg.flush()
        series = agg.series("db1", "cpu")
        assert series.frequency is Frequency.HOURLY
        assert series.start == 0.0
        assert np.allclose(series.values, values.reshape(3, 4).mean(axis=1))
        assert series.name == "db1.cpu"

    def test_series_anchored_at_first_sample_not_calendar(self):
        bus, agg = make()
        bus.push_chunk([sample(i, 1.0) for i in range(2, 11)])  # starts mid-hour
        agg.flush()
        series = agg.series("db1", "cpu")
        assert series.start == 2 * 900.0
        assert len(series) == 2

    def test_series_before_any_window_raises(self):
        bus, agg = make()
        bus.push(sample(0))
        with pytest.raises(DataError):
            agg.series("db1", "cpu")

    def test_history_limit_trims_but_keeps_clock(self):
        bus, agg = make(history_limit=2)
        bus.push_chunk([sample(i, float(i // 4)) for i in range(21)])
        agg.advance()
        series = agg.series("db1", "cpu")
        assert len(series) == 2
        assert series.start == 3 * 3600.0  # 5 closed, oldest 3 trimmed
        assert agg.windows_closed("db1", "cpu") == 5


class TestValidation:
    def test_window_must_be_coarser_multiple(self):
        bus = IngestBus(raw_frequency=Frequency.HOURLY)
        with pytest.raises(FrequencyError):
            WindowAggregator(bus, window_frequency=Frequency.MINUTE_15)

    def test_bad_history_limit(self):
        bus = IngestBus()
        with pytest.raises(DataError):
            WindowAggregator(bus, history_limit=0)
