"""Streaming ingestion: the sample bus with watermarks and backpressure.

Section 5.1's agents push polls into the central repository continuously,
and "it is possible that the agent may have been at fault" — in a live
estate samples arrive *late*, *out of order* and occasionally *twice*
(agents retry after network blips). :class:`IngestBus` is the streaming
front door that absorbs exactly that traffic:

* every pushed :class:`~repro.agent.agent.AgentSample` is snapped onto the
  15-minute polling grid and buffered per ``(instance, metric)`` key;
* duplicates (same key, same grid slot) are dropped — the first value
  wins — and counted, so a retrying agent cannot double-count load;
* each key tracks a **watermark**: the largest event timestamp seen minus
  a configurable ``allowed_lateness``. Downstream hourly windows finalise
  only once the watermark passes their end, so an out-of-order sample
  within the lateness budget still lands in its window. Samples older
  than an already-finalised window are *too late*: dropped and counted
  (a closed hour is immutable, matching the batch repository's
  aggregate-once semantics);
* buffering is **bounded**: the bus holds at most ``capacity`` un-finalised
  samples across all keys. Pushes beyond that are rejected and counted as
  backpressure — the caller's signal to drain windows (or slow down)
  before retrying. Finalising a window frees its slots.

Two intake shapes share those semantics. :meth:`push` is the sequential
reference: one sample, the full check ladder. :meth:`push_columns` is the
**columnar intake** every batch takes (:meth:`push_chunk` converts an
``AgentSample`` list into its columns): a whole delivery-ordered batch as
four parallel columns, admitted in one vectorized pass — grid snapping,
non-finite masking, dedup, frontier-late and backpressure checks all
batched, with one counter-dict update per batch instead of one per
sample. Its contract is *sample-for-sample identity* with a sequential
``push`` loop over the same rows in delivery order: first-wins dedup
among intra-batch duplicates, the exact sample at which capacity
rejection begins, counter totals, buffer contents, even dict insertion
order all match bit for bit (property-tested in
``tests/stream/test_columnar.py``).

Internally every key is interned through a shared
:class:`~repro.stream.keys.KeyTable` into a dense int id, and per-key
state lives in id-indexed stores; pushes record the touched keys in a
**dirty set** the aggregator drains, so a quiet estate costs nothing per
tick no matter how many keys it holds.

The bus does no aggregation itself — that is
:class:`~repro.stream.aggregate.WindowAggregator`'s job — it owns the raw
buffers, the dedup ledger and the watermark bookkeeping that the
aggregator consumes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..agent.agent import AgentSample
from ..core.frequency import Frequency
from ..exceptions import DataError
from .keys import KeyTable

__all__ = ["IngestBus", "KeyBuffer", "StreamKey"]

#: A monitored metric's identity on the bus: ``(instance, metric)``.
StreamKey = tuple[str, str]

#: Sentinels for "no slot yet": chosen so the sequential check ladder's
#: comparisons stay correct without ``is None`` branches (any real slot
#: compares above ``_NO_MAX``/``_NO_FRONTIER`` and below ``_NO_MIN``).
_NO_MIN = 2**62
_NO_MAX = -(2**62)
_NO_FRONTIER = -(2**62)


class KeyBuffer:
    """Live view of one stream key's buffered polls and watermark state.

    Attributes
    ----------
    slots:
        Buffered, not-yet-finalised values keyed by integer grid slot
        (``timestamp / step`` rounded). Finalising a window pops its
        slots. This is the bus's live dict — mutations are visible.
    min_slot / max_slot:
        Extremes of every *accepted* slot so far (min over all history,
        max drives the watermark). ``None`` until the first accept.
    frontier_slot:
        First grid slot not yet covered by a finalised window; ``None``
        until the aggregator closes the key's first window. Samples
        below the frontier are too late to land anywhere.
    """

    __slots__ = ("_bus", "_kid")

    def __init__(self, bus: IngestBus, kid: int) -> None:
        self._bus = bus
        self._kid = kid

    @property
    def slots(self) -> dict[int, float]:
        return self._bus._slots[self._kid]

    @property
    def min_slot(self) -> int | None:
        value = self._bus._min_slot[self._kid]
        return None if value == _NO_MIN else value

    @property
    def max_slot(self) -> int | None:
        value = self._bus._max_slot[self._kid]
        return None if value == _NO_MAX else value

    @property
    def frontier_slot(self) -> int | None:
        value = self._bus._frontier[self._kid]
        return None if value == _NO_FRONTIER else value

    def watermark_slot(self, lateness_slots: int) -> int | None:
        """Highest slot considered complete, or ``None`` before any data."""
        max_slot = self._bus._max_slot[self._kid]
        if max_slot == _NO_MAX:
            return None
        return max_slot - lateness_slots


class IngestBus:
    """Bounded, deduplicating, watermark-tracking sample intake.

    Parameters
    ----------
    raw_frequency:
        The polling grid samples are snapped to (paper: 15 minutes).
    allowed_lateness:
        Seconds of event-time slack behind the newest sample during which
        late arrivals are still accepted into open windows. ``0`` means
        windows may close as soon as a newer sample arrives;
        ``math.inf`` never closes windows until an explicit flush (the
        batch-equivalent mode used by the order-invariance property
        tests).
    capacity:
        Maximum buffered (un-finalised) samples across all keys; pushes
        beyond it are rejected and counted as backpressure.
    injector:
        Optional :class:`~repro.faults.plan.FaultInjector` driving the
        ``ingest.deliver`` hook point — the "network" between agent and
        repository, where batches lose, duplicate or corrupt samples in
        flight. :meth:`push_columns` runs each batch through it before
        admission; :meth:`push` stays a pure single-sample intake.
    key_table:
        Shared :class:`~repro.stream.keys.KeyTable`; a fresh private one
        when omitted. The aggregator and scheduler borrow the bus's
        table so one dense id means the same key across every layer.
    """

    def __init__(
        self,
        raw_frequency: Frequency = Frequency.MINUTE_15,
        allowed_lateness: float = 0.0,
        capacity: int = 1_000_000,
        injector=None,
        key_table: KeyTable | None = None,
    ) -> None:
        if allowed_lateness < 0:
            raise DataError("allowed_lateness must be non-negative")
        if capacity < 1:
            raise DataError("bus capacity must be positive")
        self.raw_frequency = raw_frequency
        self.allowed_lateness = float(allowed_lateness)
        self.capacity = int(capacity)
        self.injector = injector
        self.key_table = key_table if key_table is not None else KeyTable()
        # Per-key state, indexed by the table's dense key id. A key with
        # a None slots entry has no buffer here (never pushed / evicted).
        self._slots: list[dict[int, float] | None] = []
        self._min_slot: list[int] = []
        self._max_slot: list[int] = []
        self._frontier: list[int] = []
        self._buffered = 0
        #: False until any key's finalisation frontier first moves —
        #: lets the columnar path skip the per-group frontier gather on
        #: a bus that has never closed a window.
        self._any_frontier = False
        #: Key ids whose buffered state moved since the last take_dirty().
        self._dirty: set[int] = set()
        #: Cached sorted (key, kid) view of the live keys (satellite fix:
        #: keys() used to re-sort the whole estate on every advance()).
        self._sorted: list[tuple[StreamKey, int]] | None = None
        self.counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    @property
    def step(self) -> float:
        """Width of one grid slot in seconds."""
        return float(self.raw_frequency.seconds)

    @property
    def lateness_slots(self) -> int:
        if math.isinf(self.allowed_lateness):
            return 2**62  # effectively: never advance the watermark
        return int(math.ceil(self.allowed_lateness / self.step))

    @property
    def buffered(self) -> int:
        """Samples currently held (accepted but not yet finalised)."""
        return self._buffered

    def _count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _slots_for(self, kid: int) -> dict[int, float]:
        """The key's live slot dict, materialising fresh state on demand."""
        store = self._slots
        if kid >= len(store):
            grow = kid + 1 - len(store)
            store.extend([None] * grow)
            self._min_slot.extend([_NO_MIN] * grow)
            self._max_slot.extend([_NO_MAX] * grow)
            self._frontier.extend([_NO_FRONTIER] * grow)
        slots = store[kid]
        if slots is None:
            slots = store[kid] = {}
            self._min_slot[kid] = _NO_MIN
            self._max_slot[kid] = _NO_MAX
            self._frontier[kid] = _NO_FRONTIER
            self._sorted = None
        return slots

    def push(self, sample: AgentSample) -> bool:
        """Offer one sample; returns True when it was accepted and buffered.

        Rejections are counted by cause: non-finite values
        (``samples_nonfinite``), duplicates (``samples_duplicate``),
        arrivals below a finalised window (``samples_late_dropped``) and
        a full buffer (``samples_rejected_backpressure``). Accepted
        samples that arrived behind the key's newest timestamp bump
        ``samples_out_of_order`` — accepted, merely reordered.
        """
        value = float(sample.value)
        if not math.isfinite(value):
            self._count("samples_nonfinite")
            return False
        slot = int(round(float(sample.timestamp) / self.step))
        kid = self.key_table.intern(sample.instance, sample.metric)
        slots = self._slots_for(kid)
        if slot < self._frontier[kid]:
            self._count("samples_late_dropped")
            return False
        if slot in slots:
            self._count("samples_duplicate")
            return False
        if self._buffered >= self.capacity:
            self._count("samples_rejected_backpressure")
            return False
        if slot < self._max_slot[kid]:
            self._count("samples_out_of_order")
        else:
            self._max_slot[kid] = slot
        if slot < self._min_slot[kid]:
            self._min_slot[kid] = slot
        slots[slot] = value
        self._buffered += 1
        self._dirty.add(kid)
        self._count("samples_accepted")
        return True

    def push_chunk(self, samples) -> int:
        """Columnar intake for a delivery-ordered ``AgentSample`` list.

        The edge conversion: splits the chunk into columns once and runs
        :meth:`push_columns`; returns how many samples were accepted.
        """
        n = len(samples)
        if n == 0:
            return 0
        return self.push_columns(
            [s.instance for s in samples],
            [s.metric for s in samples],
            np.fromiter((s.timestamp for s in samples), dtype=np.float64, count=n),
            np.fromiter((s.value for s in samples), dtype=np.float64, count=n),
        )

    def push_columns(self, instances, metrics, timestamps, values) -> int:
        """Columnar batch intake; returns how many samples were accepted.

        The four columns describe one delivery-ordered batch: row ``i``
        is the sample ``(instances[i], metrics[i], timestamps[i],
        values[i])``. Admission stays **sample-for-sample identical** to
        calling :meth:`push` on each row in order, but the work is
        batched:

        * with an injector, the batch first passes the ``ingest.deliver``
          hook (:meth:`~repro.faults.plan.FaultInjector.on_columns`):
          drops, duplicates, corruption, NaN bursts and clock skew mangle
          the rows before admission sees them, so injected NaNs surface
          as ``samples_nonfinite`` and injected duplicates as
          ``samples_duplicate`` — chaos traffic is counted by the same
          ledger as real traffic;
        * non-finite values are masked out first (``samples_nonfinite``)
          and timestamps snap to grid slots via ``np.round(ts / step)``
          — the same banker's rounding as the scalar ``int(round(...))``;
        * keys intern through :meth:`KeyTable.intern_column` into one
          dense id column (C-speed on a warm table);
        * rows group by key id under a stable sort, so each key's
          buffer, extremes and frontier load once per group instead of
          once per row — and delivery order is preserved within a group,
          which is the only order the per-key checks can observe;
        * groups that are provably trivial — slots strictly increasing,
          all above the key's buffered maximum and at or above its
          finalisation frontier — bulk-insert via one C-level
          ``dict.update``; anything messier (late arrivals, duplicates,
          out-of-order slots) replays the scalar check ladder row by
          row within the group;
        * when the batch could hit the capacity ceiling the grouped
          pass is skipped entirely and the whole batch replays the
          ladder in strict delivery order, reproducing the exact sample
          at which the sequential loop starts rejecting. Grouping is
          only an execution strategy for the no-rejection regime, where
          keys cannot interact.

        Counters are accumulated per batch — one dict update per cause —
        and a counter key is only created when its batch total is
        non-zero, matching the sequential loop's lazily-created ledger.
        """
        values = np.asarray(values, dtype=np.float64)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if not (len(instances) == len(metrics) == len(timestamps) == len(values)):
            raise DataError("push_columns requires four equal-length columns")
        if self.injector is not None:
            instances, metrics, timestamps, values = self.injector.on_columns(
                "ingest.deliver", instances, metrics, timestamps, values
            )
        n = len(instances)
        if n == 0:
            return 0

        finite = np.isfinite(values)
        n_finite = int(finite.sum())
        if n_finite < n:
            self._count("samples_nonfinite", n - n_finite)
            if n_finite == 0:
                return 0
            rows = np.flatnonzero(finite)
            keep = finite.tolist()
            vals = values[rows]
            ts = timestamps[rows]
            inst_col = list(itertools.compress(instances, keep))
            met_col = list(itertools.compress(metrics, keep))
        else:
            vals = values
            ts = timestamps
            inst_col = instances
            met_col = metrics
        if not np.isfinite(ts).all():
            # The scalar path's int(round(nan)) raises; silent garbage
            # slots from astype(int64) would be a parity break.
            raise ValueError("cannot snap a non-finite timestamp to the grid")
        # np.round is round-half-even, same as the scalar int(round(...)).
        slots = np.round(ts / self.step).astype(np.int64)
        kid_list = self.key_table.intern_column(inst_col, met_col)

        # Size the id-indexed stores for any ids new to this bus (fresh
        # interns above, or keys another layer interned first).
        store = self._slots
        table_size = len(self.key_table)
        if len(store) < table_size:
            grow = table_size - len(store)
            store.extend([None] * grow)
            self._min_slot.extend([_NO_MIN] * grow)
            self._max_slot.extend([_NO_MAX] * grow)
            self._frontier.extend([_NO_FRONTIER] * grow)
        min_slot = self._min_slot
        max_slot = self._max_slot
        frontier = self._frontier
        dirty_add = self._dirty.add
        n_late = n_dup = n_ooo = 0
        buffered = self._buffered

        if buffered + n_finite > self.capacity:
            # Capacity may bind: replay the scalar ladder in strict
            # delivery order — rejection order across keys matters here.
            capacity = self.capacity
            for kid, s, v in zip(kid_list, slots.tolist(), vals.tolist()):
                buf = store[kid]
                if buf is None:
                    buf = store[kid] = {}
                    self._sorted = None
                if s < frontier[kid]:
                    n_late += 1
                    continue
                if s in buf:
                    n_dup += 1
                    continue
                if buffered >= capacity:
                    continue
                if s < max_slot[kid]:
                    n_ooo += 1
                else:
                    max_slot[kid] = s
                if s < min_slot[kid]:
                    min_slot[kid] = s
                buf[s] = v
                buffered += 1
                dirty_add(kid)
            n_accepted = buffered - self._buffered
            n_backpressure = n_finite - n_late - n_dup - n_accepted
        else:
            # No rejection possible: keys cannot interact, so rows may
            # regroup by key (delivery order kept within each group by
            # the stable sort; int32 ids make the radix sort's keys
            # half as wide).
            kids_arr = np.array(kid_list, dtype=np.int32)
            order = np.argsort(kids_arr, kind="stable")
            ks = kids_arr[order]
            ss = slots[order]
            first = np.empty(n_finite, dtype=bool)
            first[0] = True
            np.not_equal(ks[1:], ks[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            gkids = ks[starts].tolist()
            # A group is trivial when its slots strictly increase from
            # above the key's running max: no duplicate (buffered slots
            # never exceed max_slot), no reorder, and — provided the
            # first slot clears the frontier — no late row either.
            inc = np.empty(n_finite, dtype=bool)
            inc[0] = True
            np.greater(ss[1:], ss[:-1], out=inc[1:])
            n_groups = starts.size
            pre_max = np.fromiter(
                (max_slot[k] for k in gkids), dtype=np.int64, count=n_groups
            )
            first_slot = ss[starts]
            inc[starts] = first_slot > pre_max
            trivial = np.logical_and.reduceat(inc, starts)
            if self._any_frontier:
                pre_frontier = np.fromiter(
                    (frontier[k] for k in gkids), dtype=np.int64, count=n_groups
                )
                trivial &= first_slot >= pre_frontier

            ss_list = ss.tolist()
            vs_list = vals[order].tolist()
            starts_list = starts.tolist()
            ends_list = starts_list[1:]
            ends_list.append(n_finite)
            for kid, a, b, ok in zip(
                gkids, starts_list, ends_list, trivial.tolist()
            ):
                buf = store[kid]
                if buf is None:
                    buf = store[kid] = {}
                    self._sorted = None
                if ok:
                    if b - a == 1:
                        s = ss_list[a]
                        buf[s] = vs_list[a]
                        max_slot[kid] = s
                        if s < min_slot[kid]:
                            min_slot[kid] = s
                    else:
                        buf.update(zip(ss_list[a:b], vs_list[a:b]))
                        max_slot[kid] = ss_list[b - 1]
                        s = ss_list[a]
                        if s < min_slot[kid]:
                            min_slot[kid] = s
                    dirty_add(kid)
                    continue
                g_frontier = frontier[kid]
                g_max = max_slot[kid]
                g_min = min_slot[kid]
                g_accepted = False
                for s, v in zip(ss_list[a:b], vs_list[a:b]):
                    if s < g_frontier:
                        n_late += 1
                        continue
                    if s in buf:
                        n_dup += 1
                        continue
                    if s < g_max:
                        n_ooo += 1
                    else:
                        g_max = s
                    if s < g_min:
                        g_min = s
                    buf[s] = v
                    g_accepted = True
                if g_accepted:
                    max_slot[kid] = g_max
                    min_slot[kid] = g_min
                    dirty_add(kid)
            # No rejection regime: everything not late or duplicate
            # landed, so the accepted count needs no per-row tally.
            n_accepted = n_finite - n_late - n_dup
            buffered += n_accepted
            n_backpressure = 0

        if n_late:
            self._count("samples_late_dropped", n_late)
        if n_dup:
            self._count("samples_duplicate", n_dup)
        if n_backpressure:
            self._count("samples_rejected_backpressure", n_backpressure)
        if n_accepted == 0:
            return 0
        if n_ooo:
            self._count("samples_out_of_order", n_ooo)
        self._buffered = buffered
        self._count("samples_accepted", n_accepted)
        return n_accepted

    # ------------------------------------------------------------------
    # State the aggregator consumes
    # ------------------------------------------------------------------
    def _sorted_view(self) -> list[tuple[StreamKey, int]]:
        if self._sorted is None:
            key_of = self.key_table.key_of
            self._sorted = sorted(
                (key_of(kid), kid)
                for kid, slots in enumerate(self._slots)
                if slots is not None
            )
        return self._sorted

    def keys(self) -> list[StreamKey]:
        """Every key that has ever accepted a sample, sorted.

        Served from a cached view invalidated only when a key appears or
        leaves — repeated per-tick calls on a stable estate cost O(keys)
        to copy, never O(keys log keys) to re-sort.
        """
        return [key for key, __ in self._sorted_view()]

    def live_kids(self) -> list[int]:
        """Ids of every key with a buffer here, in sorted key order."""
        return [kid for __, kid in self._sorted_view()]

    def take_dirty(self) -> list[int]:
        """Drain the dirty set: ids touched since the last call, sorted.

        A key is dirty when any accepted or adopted sample changed its
        buffered state — not merely when its watermark moved, because an
        in-budget late arrival can lower ``min_slot`` and re-anchor the
        grid, making a window closable without the watermark advancing.
        The aggregator's ``advance()`` visits exactly this set, so a
        tick costs O(touched keys), not O(estate).
        """
        if not self._dirty:
            return []
        store = self._slots
        touched = [kid for kid in self._dirty if store[kid] is not None]
        touched.sort(key=self.key_table.key_of)
        self._dirty.clear()
        return touched

    def buffer(self, instance: str, metric: str) -> KeyBuffer:
        """The raw buffer view for a key (aggregator-facing)."""
        kid = self.key_table.id_of(instance, metric)
        if kid is None or kid >= len(self._slots) or self._slots[kid] is None:
            raise DataError(f"no samples seen for {instance}/{metric}")
        return KeyBuffer(self, kid)

    def min_slot_of(self, kid: int) -> int | None:
        """Earliest accepted slot for a key id, or ``None`` pre-data."""
        value = self._min_slot[kid]
        return None if value == _NO_MIN else value

    def max_slot_of(self, kid: int) -> int | None:
        """Newest accepted slot for a key id, or ``None`` pre-data."""
        value = self._max_slot[kid]
        return None if value == _NO_MAX else value

    def watermark_slot_of(self, kid: int) -> int | None:
        """Highest complete slot for a key id, or ``None`` pre-data."""
        max_slot = self._max_slot[kid]
        if max_slot == _NO_MAX:
            return None
        return max_slot - self.lateness_slots

    def watermark(self, instance: str, metric: str) -> float | None:
        """Event-time watermark for a key in seconds, or ``None`` pre-data.

        Everything at or before the watermark is considered complete:
        ``max(event timestamps) - allowed_lateness``.
        """
        kid = self.key_table.id_of(instance, metric)
        if kid is None or kid >= len(self._slots) or self._slots[kid] is None:
            return None
        max_slot = self._max_slot[kid]
        if max_slot == _NO_MAX:
            return None
        if math.isinf(self.allowed_lateness):
            return -math.inf
        return max_slot * self.step - self.allowed_lateness

    def evict(self, instance: str, metric: str) -> int:
        """Drop a key's buffer entirely (shard rebalance migration).

        Returns how many buffered samples were released. A later push for
        the key starts a fresh buffer — watermark, frontier and dedup
        ledger reset — exactly as if the key had never been seen here.
        The key keeps its interned id.
        """
        kid = self.key_table.id_of(instance, metric)
        if kid is None or kid >= len(self._slots) or self._slots[kid] is None:
            return 0
        released = len(self._slots[kid])
        self._buffered -= released
        self._slots[kid] = None
        self._min_slot[kid] = _NO_MIN
        self._max_slot[kid] = _NO_MAX
        self._frontier[kid] = _NO_FRONTIER
        self._dirty.discard(kid)
        self._sorted = None
        return released

    def export_buffer(self, instance: str, metric: str) -> dict | None:
        """A key's raw buffer state as a plain picklable dict, or ``None``.

        The sending half of shard rebalance migration: the still-open
        slots, grid extremes and finalisation frontier travel to the
        key's new shard so no buffered sample is lost and the watermark
        discipline resumes exactly where it left off.
        """
        kid = self.key_table.id_of(instance, metric)
        if kid is None or kid >= len(self._slots) or self._slots[kid] is None:
            return None
        view = KeyBuffer(self, kid)
        return {
            "slots": dict(view.slots),
            "min_slot": view.min_slot,
            "max_slot": view.max_slot,
            "frontier_slot": view.frontier_slot,
        }

    def adopt_buffer(self, instance: str, metric: str, state: dict) -> None:
        """Install a migrated buffer (the receiving half of ``export_buffer``).

        Migration is admission-free: the adopted slots bypass the
        capacity check (they were already admitted on the source shard),
        so a rebalance can transiently overshoot ``capacity`` rather
        than drop accepted data.
        """
        kid = self.key_table.intern(instance, metric)
        if kid < len(self._slots) and self._slots[kid] is not None:
            raise DataError(f"buffer already present for {instance}/{metric}")
        slots = self._slots_for(kid)
        slots.update({int(s): float(v) for s, v in state["slots"].items()})
        if state["min_slot"] is not None:
            self._min_slot[kid] = int(state["min_slot"])
        if state["max_slot"] is not None:
            self._max_slot[kid] = int(state["max_slot"])
        if state["frontier_slot"] is not None:
            self._frontier[kid] = int(state["frontier_slot"])
            self._any_frontier = True
        self._buffered += len(slots)
        self._dirty.add(kid)

    def consume(
        self, key: StreamKey, upto_slot: int, from_slot: int | None = None
    ) -> dict[int, float]:
        """Pop and return the buffered slots of ``key`` below ``upto_slot``.

        Called when finalising windows; advances the key's frontier so
        later arrivals below it are dropped as late, and releases the
        popped slots' buffer capacity. When ``from_slot`` is given,
        buffered slots below it are popped too (they can never land
        anywhere once the frontier moves past them) but excluded from
        the returned window and counted as ``samples_late_dropped``
        instead — a closed window must only ever contain its own span.
        """
        kid = self.key_table.id_of(*key)
        if kid is None or kid >= len(self._slots) or self._slots[kid] is None:
            raise KeyError(key)
        taken_slots, taken_values = self.consume_span(kid, upto_slot, from_slot)
        return dict(zip(taken_slots.tolist(), taken_values.tolist()))

    def consume_span(
        self, kid: int, upto_slot: int, from_slot: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Columnar :meth:`consume` by key id: ``(slots, values)`` arrays.

        The one-key case of :meth:`consume_spans`.
        """
        __, slots, values = self.consume_spans(
            [kid], [upto_slot], None if from_slot is None else [from_slot]
        )
        return slots, values

    def consume_spans(
        self, kids: list[int], upto_slots: list[int], from_slots: list[int] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pop many keys' buffered slots in one pass: ``(rows, slots, values)``.

        Row ``r`` stands for key ``kids[r]``: its buffered slots below
        ``upto_slots[r]`` leave the buffer (releasing their capacity) and
        its frontier moves up to ``upto_slots[r]``, so later arrivals
        below it are dropped as late. With ``from_slots``, popped slots
        below ``from_slots[r]`` can never land anywhere once the frontier
        passes them: they are counted as ``samples_late_dropped`` and
        left out of the result — a closed window only ever holds its own
        span. The returned arrays hold the other popped samples and the
        row each came from, key by key in ``kids`` order and, within a
        key, in buffer insertion order: the order a sequential consume's
        dict walk would take, so downstream means accumulate in the
        identical sequence. The only per-key work is list work: reading
        each buffer into flat lists, then rebuilding or clearing it.
        """
        store = self._slots
        held: list[int] = []
        flat_slots: list[int] = []
        flat_values: list[float] = []
        for kid in kids:
            buf = store[kid]
            if buf:
                held.append(len(buf))
                flat_slots.extend(buf)
                flat_values.extend(buf.values())
            else:
                held.append(0)
        slots = np.array(flat_slots, dtype=np.int64)
        values = np.array(flat_values, dtype=np.float64)
        rows = np.repeat(np.arange(len(kids)), held)
        upto = np.array(upto_slots, dtype=np.int64)
        take = slots < upto[rows]
        taken = take
        if from_slots is not None:
            stale = take & (slots < np.array(from_slots, dtype=np.int64)[rows])
            n_stale = int(np.count_nonzero(stale))
            if n_stale:
                self._count("samples_late_dropped", n_stale)
                taken = take & ~stale

        n_take = np.bincount(rows[take], minlength=len(kids)).tolist()
        kept = ~take
        kept_slots = slots[kept].tolist()
        kept_values = values[kept].tolist()
        frontier = self._frontier
        moved = False
        at = 0
        for kid, n_held, n_popped, up in zip(kids, held, n_take, upto_slots):
            n_kept = n_held - n_popped
            if n_popped:
                if n_kept:
                    store[kid] = dict(
                        zip(kept_slots[at : at + n_kept], kept_values[at : at + n_kept])
                    )
                else:
                    store[kid].clear()
            at += n_kept
            if up > frontier[kid]:
                frontier[kid] = up
                moved = True
        self._buffered -= len(flat_slots) - len(kept_slots)
        if moved:
            self._any_frontier = True
        return rows[taken], slots[taken], values[taken]
