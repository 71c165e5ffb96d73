"""Property tests: the streaming path must equal the batch path.

The contract under test (see ``repro/stream/aggregate.py``): pushing the
same accepted polls through ``IngestBus`` → ``WindowAggregator`` yields
bit-identical hourly series to storing them in a ``MetricsRepository``
and calling ``load_series`` — regardless of delivery order, duplication
or how the stream is chopped into batches.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.agent import AgentSample, MetricsRepository
from repro.core import Frequency
from repro.stream import IngestBus, WindowAggregator

STEP = 900.0


def slot_values():
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
        min_size=4,
        max_size=80,
        unique_by=lambda pair: pair[0],
    )


def batch_hourly(samples):
    with MetricsRepository() as repo:
        repo.ingest(samples)
        return repo.load_series(
            samples[0].instance,
            samples[0].metric,
            frequency=Frequency.HOURLY,
            raw_frequency=Frequency.MINUTE_15,
        )


def assert_series_equal(stream_series, batch_series):
    assert stream_series.start == batch_series.start
    assert stream_series.frequency is batch_series.frequency
    assert np.allclose(stream_series.values, batch_series.values, equal_nan=True)


class TestOrderInvariance:
    @given(slot_values(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_shuffled_duplicated_stream_equals_repository(self, pairs, seed):
        slots = [slot for slot, __ in pairs]
        assume(max(slots) - min(slots) >= 3)  # at least one complete hour
        samples = [
            AgentSample("db", "m", timestamp=slot * STEP, value=value)
            for slot, value in pairs
        ]
        rng = np.random.default_rng(seed)
        delivered = list(samples)
        # True duplicates: the agent re-sent some polls unchanged.
        n_dups = int(rng.integers(0, len(samples) + 1))
        delivered += [samples[i] for i in rng.integers(0, len(samples), n_dups)]
        rng.shuffle(delivered)

        bus = IngestBus(allowed_lateness=math.inf)
        agg = WindowAggregator(bus)
        bus.push_chunk(delivered)
        assert agg.advance() == []  # infinite lateness: nothing closes early
        agg.flush()
        assert_series_equal(agg.series("db", "m"), batch_hourly(samples))
        assert bus.counters.get("samples_duplicate", 0) == n_dups

    @given(slot_values(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_batch_chopping_is_irrelevant(self, pairs, seed):
        slots = [slot for slot, __ in pairs]
        assume(max(slots) - min(slots) >= 3)
        samples = sorted(
            (
                AgentSample("db", "m", timestamp=slot * STEP, value=value)
                for slot, value in pairs
            ),
            key=lambda s: s.timestamp,
        )
        rng = np.random.default_rng(seed)
        bus = IngestBus(allowed_lateness=0.0)
        agg = WindowAggregator(bus)
        windows = []
        lo = 0
        while lo < len(samples):
            hi = lo + int(rng.integers(1, 8))
            bus.push_chunk(samples[lo:hi])
            windows.extend(agg.advance())  # interleaved mid-stream closing
            lo = hi
        windows.extend(agg.flush())
        assert_series_equal(agg.series("db", "m"), batch_hourly(samples))
        # The emitted window stream IS the series.
        assert np.allclose(
            [w.value for w in windows],
            agg.series("db", "m").values,
            equal_nan=True,
        )

    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.0, max_value=1700.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_bounded_delivery_jitter_loses_nothing(self, n_hours, seed, jitter):
        """Reordering within the lateness budget never drops a sample."""
        rng = np.random.default_rng(seed)
        values = rng.normal(50.0, 10.0, n_hours * 4)
        samples = [
            AgentSample("db", "m", timestamp=i * STEP, value=float(v))
            for i, v in enumerate(values)
        ]
        arrivals = sorted(samples, key=lambda s: s.timestamp + rng.uniform(0.0, jitter))
        bus = IngestBus(allowed_lateness=1800.0)
        agg = WindowAggregator(bus)
        for sample in arrivals:
            bus.push(sample)
            agg.advance()
        agg.flush()
        assert bus.counters.get("samples_late_dropped", 0) == 0
        assert_series_equal(agg.series("db", "m"), batch_hourly(samples))

    @given(
        st.integers(min_value=3, max_value=10),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_reversed_first_hour_rebases_anchor(self, n_hours, seed):
        """Per-sample pushes with the whole first hour arriving newest-first
        must still anchor the grid at the earliest sample (regression: the
        anchor used to freeze on the first advance() call)."""
        rng = np.random.default_rng(seed)
        values = rng.normal(50.0, 10.0, n_hours * 4)
        samples = [
            AgentSample("db", "m", timestamp=i * STEP, value=float(v))
            for i, v in enumerate(values)
        ]
        arrivals = list(reversed(samples[:4])) + samples[4:]
        bus = IngestBus(allowed_lateness=4 * STEP)
        agg = WindowAggregator(bus)
        for sample in arrivals:
            bus.push(sample)
            agg.advance()
        agg.flush()
        assert bus.counters.get("samples_late_dropped", 0) == 0
        assert_series_equal(agg.series("db", "m"), batch_hourly(samples))
