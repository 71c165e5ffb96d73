"""Incremental hourly aggregation: windows finalise as watermarks advance.

The batch path stores raw polls and aggregates "into hourly values" on
read (:meth:`repro.agent.repository.MetricsRepository.load_series`). The
streaming path cannot wait for a read — it must decide, sample by sample,
when an hour is *complete* and emit it exactly once. That decision is the
watermark's: a window ``[start, start + 1h)`` finalises when its key's
watermark (newest event time minus the allowed lateness) passes the
window end, so every in-budget late arrival still lands in its hour.

**Equivalence contract** (property-tested in
``tests/stream/test_stream_properties.py``): feeding the same accepted
polls through ``IngestBus`` → ``WindowAggregator`` → :meth:`flush` yields
*bit-identical* hourly series to storing them in a
:class:`~repro.agent.repository.MetricsRepository` and calling
``load_series(..., Frequency.HOURLY)``. Concretely that means:

* windows are anchored at the key's earliest sample (the batch grid's
  ``t0``), not at calendar hours;
* a window's value is the mean of the distinct grid slots present; a
  window with *no* samples is emitted as ``NaN`` (the batch path's
  whole-bucket-missing rule) so the hourly series stays gap-free;
* a trailing window not fully covered by the raw grid is dropped at
  flush, matching :meth:`TimeSeries.aggregate`'s partial-bucket policy.

Windows close strictly left to right per key, so the emitted stream *is*
the hourly series — :meth:`WindowAggregator.series` rebuilds it for the
scheduler without touching the raw store.

Finalisation is **dirty-key driven**: the bus records which keys accepted
samples since the last tick, and :meth:`advance` visits exactly those —
a quiet 100k-key estate pays O(touched), not O(estate), per tick. Every
due window of every touched key closes in **one pass** per tick, however
many keys and windows that is (a steady hour, a catch-up burst, a
long-idle key waking up): per key the pass only reads the watermark and
grid anchor, one :meth:`~repro.stream.ingest.IngestBus.consume_spans`
call pops every closing key's span as flat arrays, and one weighted
``np.bincount`` over global window indices gives every window's sum and
count. A bin accumulates in scan order, which within a window is the
key's buffer insertion order — the order a sequential mean sums — so
every emitted value is bit-identical to closing one window at a time.
Windows of eight or more polls keep one ``np.mean`` per window, because
numpy sums eight or more addends pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.frequency import Frequency
from ..core.timeseries import TimeSeries
from ..exceptions import DataError, FrequencyError
from .ingest import IngestBus

__all__ = ["ClosedWindow", "WindowAggregator"]


@dataclass(frozen=True)
class ClosedWindow:
    """One finalised aggregation window for one stream key.

    Attributes
    ----------
    start:
        Window start timestamp in seconds (event time).
    value:
        Mean of the window's present samples; ``NaN`` when the whole
        window was missed (the batch path's whole-bucket-missing rule).
    n_samples / expected:
        How many distinct polls landed in the window vs. the full grid
        count (4 for 15-minute polls into hourly windows).
    """

    instance: str
    metric: str
    start: float
    value: float
    n_samples: int
    expected: int

    @property
    def complete(self) -> bool:
        return self.n_samples == self.expected


@dataclass
class _KeyWindows:
    """Finalisation state for one key: grid anchor plus emitted values.

    ``anchor_slot`` tracks the key's earliest accepted sample (the batch
    grid's ``t0``) and only freezes once the first window closes.
    """

    anchor_slot: int | None = None
    closed: int = 0
    trimmed: int = 0
    values: list[float] = field(default_factory=list)


class WindowAggregator:
    """Turns the bus's raw buffers into finalised hourly windows.

    Parameters
    ----------
    bus:
        The :class:`~repro.stream.ingest.IngestBus` owning the raw
        buffers and watermarks. Its
        :class:`~repro.stream.keys.KeyTable` is shared: finalisation
        state here is keyed by the bus's dense key ids.
    window_frequency:
        Aggregation granularity (hourly, the paper's storage policy).
        Must be a coarser integer multiple of the bus's polling grid.
    history_limit:
        Maximum finalised windows retained per key for
        :meth:`series` reconstruction; ``None`` keeps everything. The
        oldest windows are trimmed first (counters are unaffected).
    """

    def __init__(
        self,
        bus: IngestBus,
        window_frequency: Frequency = Frequency.HOURLY,
        history_limit: int | None = None,
    ) -> None:
        ratio_exact = window_frequency.seconds / bus.step
        ratio = int(round(ratio_exact))
        if ratio < 1 or abs(ratio_exact - ratio) > 1e-9:
            raise FrequencyError(
                f"window frequency {window_frequency.name} must be a coarser integer "
                f"multiple of the {bus.raw_frequency.name} polling grid"
            )
        if history_limit is not None and history_limit < 1:
            raise DataError("history_limit must be positive (or None)")
        self.bus = bus
        self.window_frequency = window_frequency
        self.ratio = ratio
        self.history_limit = history_limit
        self._keys: dict[int, _KeyWindows] = {}
        self.counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _close(self, kids: list[int], limits: list[int]) -> list[ClosedWindow]:
        """Finalise every window of every listed key that ends by its limit slot.

        Key ``kids[r]`` closes each window whose end slot is at or below
        ``limits[r]``. Per key this reads the grid anchor and the closed
        count: list work only. One batched
        :meth:`~repro.stream.ingest.IngestBus.consume_spans` then pops
        every closing key's span, one vectorised pass maps each popped
        sample to its window, and one ``bincount`` over the whole batch
        gives every window's sample count and sum. A bin accumulates in
        scan order, which within a window is the key's buffer insertion
        order, so each mean is the one a per-window pass would compute.

        Returns the closed windows, key by key in ``kids`` order and left
        to right within a key.
        """
        keys = self._keys
        ratio = self.ratio
        min_slot_of = self.bus.min_slot_of
        close_kids: list[int] = []
        states: list[_KeyWindows] = []
        bases: list[int] = []
        n_windows: list[int] = []
        for kid, limit in zip(kids, limits):
            state = keys.get(kid)
            if state is None:
                state = keys[kid] = _KeyWindows()
            if state.closed == 0:
                # The grid anchor is the batch path's t0: the key's
                # earliest *accepted* sample. It must keep tracking
                # min_slot until the first window actually closes — an
                # out-of-order arrival can still move the grid start
                # earlier while no hour is final, and freezing too early
                # would sweep that sample into the first window
                # (corrupting its mean) and misalign every window after
                # it relative to the batch grid.
                anchor = min_slot_of(kid)
                if anchor is None:
                    continue
                state.anchor_slot = anchor
            n = (limit - state.anchor_slot) // ratio - state.closed
            if n > 0:
                close_kids.append(kid)
                states.append(state)
                bases.append(state.anchor_slot + state.closed * ratio)
                n_windows.append(n)
        if not close_kids:
            return []

        uptos = [base + n * ratio for base, n in zip(bases, n_windows)]
        sample_key, slots, values = self.bus.consume_spans(close_kids, uptos, bases)
        first_window = np.zeros(len(close_kids) + 1, dtype=np.int64)
        np.cumsum(n_windows, out=first_window[1:])
        total = int(first_window[-1])
        base_arr = np.array(bases, dtype=np.int64)
        window_idx = first_window[sample_key] + (slots - base_arr[sample_key]) // ratio
        counts = np.bincount(window_idx, minlength=total)
        if ratio < 8:
            # For fewer than 8 addends numpy's mean is the same plain
            # sequential loop as bincount's accumulation, so sum (and
            # thus mean) is bit-identical. Empty windows divide 0/0 into
            # the batch path's NaN.
            with np.errstate(invalid="ignore"):
                means = np.bincount(window_idx, weights=values, minlength=total) / counts
        else:
            # At 8+ addends numpy switches to unrolled pairwise
            # summation, which a left-to-right bincount would not match
            # bit-for-bit — fall back to one np.mean per window over the
            # insertion-ordered slice (stable sort keeps that order).
            means = np.full(total, np.nan)
            order = np.argsort(window_idx, kind="stable")
            bounds = np.searchsorted(window_idx[order], np.arange(total + 1)).tolist()
            for i in range(total):
                lo, hi = bounds[i], bounds[i + 1]
                if hi > lo:
                    means[i] = np.mean(values[order[lo:hi]])
        window_key = np.repeat(np.arange(len(close_kids)), n_windows)
        within = np.arange(total) - first_window[window_key]
        starts = ((base_arr[window_key] + within * ratio) * self.bus.step).tolist()
        mean_list = means.tolist()
        count_list = counts.tolist()

        key_of = self.bus.key_table.key_of
        limit = self.history_limit
        closed: list[ClosedWindow] = []
        at = 0
        for kid, state, n in zip(close_kids, states, n_windows):
            instance, metric = key_of(kid)
            for i in range(at, at + n):
                closed.append(
                    ClosedWindow(instance, metric, starts[i], mean_list[i], count_list[i], ratio)
                )
            state.closed += n
            state.values.extend(mean_list[at : at + n])
            if limit is not None and len(state.values) > limit:
                drop = len(state.values) - limit
                del state.values[:drop]
                state.trimmed += drop
            at += n

        self._count("windows_closed", total)
        self._count("samples_aggregated", int(slots.size))
        n_empty = total - int(np.count_nonzero(counts))
        if n_empty:
            self._count("windows_empty", n_empty)
        n_partial = int(np.count_nonzero((counts > 0) & (counts < ratio)))
        if n_partial:
            self._count("windows_partial", n_partial)
        return closed

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def advance(self) -> list[ClosedWindow]:
        """Finalise every window now behind its key's watermark.

        Call after pushing a batch of samples. Windows close strictly
        left-to-right per key; a closed window's slots leave the bus
        buffer (releasing backpressure capacity) and its span becomes
        immutable — later arrivals below it are dropped as late.

        Only the keys the bus marked **dirty** since the last tick are
        visited: an untouched key's watermark has not moved and its
        anchor cannot have re-based, so it can close nothing. The tick
        therefore costs O(keys touched), independent of estate size, and
        all of them close in one pass (:meth:`_close`).
        """
        bus = self.bus
        lateness = bus.lateness_slots
        max_slot_of = bus.max_slot_of
        kids: list[int] = []
        limits: list[int] = []
        for kid in bus.take_dirty():
            top = max_slot_of(kid)
            if top is not None:
                kids.append(kid)
                limits.append(top - lateness)
        return self._close(kids, limits)

    def flush(self) -> list[ClosedWindow]:
        """End-of-stream: finalise every window fully covered by the data.

        Ignores watermarks (no more samples are coming) and applies the
        batch path's trailing rule: a window is emitted only when the raw
        grid — which ends at the newest sample — covers all of it.
        Anything buffered beyond the last complete window is discarded
        and counted (``samples_discarded_at_flush``), exactly as
        :meth:`TimeSeries.aggregate` drops a partial trailing bucket.
        """
        bus = self.bus
        kids: list[int] = []
        limits: list[int] = []
        for kid in bus.live_kids():
            top = bus.max_slot_of(kid)
            if top is not None:
                kids.append(kid)
                limits.append(top + 1)
        closed = self._close(kids, limits)
        __, leftover, __ = bus.consume_spans(kids, limits)
        if leftover.size:
            self._count("samples_discarded_at_flush", int(leftover.size))
        return closed

    def evict(self, instance: str, metric: str) -> None:
        """Drop a key's finalisation state (shard rebalance migration).

        The bus buffer is evicted too; the key restarts with a fresh grid
        anchor wherever its samples land next. Counters keep their
        historical totals.
        """
        kid = self.bus.key_table.id_of(instance, metric)
        if kid is not None:
            self._keys.pop(kid, None)
        self.bus.evict(instance, metric)

    def export_state(self, instance: str, metric: str) -> dict | None:
        """A key's finalisation state as a picklable dict, or ``None``.

        Shard rebalance migration: the grid anchor and closed-window
        count must travel with the key, or the receiving shard would
        re-anchor on whatever buffered sample arrives first and emit
        windows that break hourly continuity with the migrated history.
        """
        kid = self.bus.key_table.id_of(instance, metric)
        state = self._keys.get(kid) if kid is not None else None
        if state is None:
            return None
        return {
            "anchor_slot": state.anchor_slot,
            "closed": state.closed,
            "trimmed": state.trimmed,
            "values": list(state.values),
        }

    def adopt_state(self, instance: str, metric: str, state: dict) -> None:
        """Install a migrated key's finalisation state (see ``export_state``)."""
        kid = self.bus.key_table.intern(instance, metric)
        if kid in self._keys:
            raise DataError(f"window state already present for {instance}/{metric}")
        self._keys[kid] = _KeyWindows(
            anchor_slot=state["anchor_slot"],
            closed=state["closed"],
            trimmed=state["trimmed"],
            values=[float(v) for v in state["values"]],
        )

    # ------------------------------------------------------------------
    # Reading back
    # ------------------------------------------------------------------
    def windows_closed(self, instance: str, metric: str) -> int:
        kid = self.bus.key_table.id_of(instance, metric)
        state = self._keys.get(kid) if kid is not None else None
        return state.closed if state is not None else 0

    def series(self, instance: str, metric: str) -> TimeSeries:
        """The finalised windows of a key as a regular hourly series.

        Equals the batch ``MetricsRepository.load_series`` result for the
        same accepted polls (modulo any windows trimmed under
        ``history_limit``).
        """
        kid = self.bus.key_table.id_of(instance, metric)
        state = self._keys.get(kid) if kid is not None else None
        if state is None or not state.values:
            raise DataError(f"no finalised windows for {instance}/{metric}")
        start = (state.anchor_slot + state.trimmed * self.ratio) * self.bus.step
        return TimeSeries(
            values=np.asarray(state.values, dtype=float),
            frequency=self.window_frequency,
            start=start,
            name=f"{instance}.{metric}",
        )
