"""The one-pass window close and the day-profile block labels against their per-key oracles.

``WindowAggregator.advance``/``flush`` close every due window of every
key in one array pass, through one batched
``IngestBus.consume_spans``; the day-profile cohort roll and forecast
pick next-day labels for the whole cohort from one stacked transition
gather. Both replaced per-key code that is kept below, verbatim, as the
oracle: ``LegacyBus.consume_span`` and ``LegacyAggregator._close_up_to``
/ ``advance`` / ``flush`` for the close, and the ``oracle_*`` functions
(the former ``advance_cohort``, ``forecast_cohort_arrays``, ``_chain``
and ``_position_arrays``) for the day-profile model. Every property
drives the new path and its oracle with identical inputs and compares
everything observable, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core import Frequency, TimeSeries
from repro.exceptions import DataError
from repro.models import DayProfile
from repro.models.dayprofile import (
    _cohort_spec,
    _step_label,
    _znorm,
    advance_cohort,
    forecast_cohort_arrays,
)
from repro.stream import ClosedWindow, IngestBus, WindowAggregator

STEP = 900.0


# ---------------------------------------------------------------------------
# Oracle: the per-key close, verbatim
# ---------------------------------------------------------------------------
class LegacyBus(IngestBus):
    def consume_span(
        self, kid: int, upto_slot: int, from_slot: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        slots_dict = self._slots[kid]
        if not slots_dict:
            if upto_slot > self._frontier[kid]:
                self._frontier[kid] = upto_slot
                self._any_frontier = True
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        held = len(slots_dict)
        slots = np.fromiter(slots_dict.keys(), dtype=np.int64, count=held)
        vals = np.fromiter(slots_dict.values(), dtype=np.float64, count=held)
        take = slots < upto_slot
        n_take = int(take.sum())
        if n_take:
            self._buffered -= n_take
            if n_take == held:
                slots_dict.clear()
            else:
                keep = ~take
                self._slots[kid] = dict(
                    zip(slots[keep].tolist(), vals[keep].tolist())
                )
        if from_slot is not None:
            stale = take & (slots < from_slot)
            n_stale = int(stale.sum())
            if n_stale:
                self._count("samples_late_dropped", n_stale)
                take &= ~stale
        if upto_slot > self._frontier[kid]:
            self._frontier[kid] = upto_slot
            self._any_frontier = True
        return slots[take], vals[take]


class LegacyAggregator(WindowAggregator):
    def _close_up_to(self, kid: int, limit_slot: int) -> list[ClosedWindow]:
        from repro.stream.aggregate import _KeyWindows

        state = self._keys.setdefault(kid, _KeyWindows())
        if state.closed == 0:
            min_slot = self.bus.min_slot_of(kid)
            if min_slot is None:
                return []
            state.anchor_slot = min_slot
        ratio = self.ratio
        n_windows = (limit_slot - state.anchor_slot) // ratio - state.closed
        if n_windows <= 0:
            return []
        base = state.anchor_slot + state.closed * ratio
        upto = base + n_windows * ratio
        slots, values = self.bus.consume_span(kid, upto, from_slot=base)
        window_idx = (slots - base) // ratio
        counts = np.bincount(window_idx, minlength=n_windows)
        if ratio < 8:
            with np.errstate(invalid="ignore"):
                means = np.bincount(
                    window_idx, weights=values, minlength=n_windows
                ) / counts
        else:
            means = np.full(n_windows, np.nan)
            order = np.argsort(window_idx, kind="stable")
            bounds = np.searchsorted(window_idx[order], np.arange(n_windows + 1))
            for i in range(n_windows):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                if hi > lo:
                    means[i] = np.mean(values[order[lo:hi]])
        instance, metric = self.bus.key_table.key_of(kid)
        step = self.bus.step
        mean_list = means.tolist()
        count_list = counts.tolist()
        closed = [
            ClosedWindow(
                instance=instance,
                metric=metric,
                start=(base + i * ratio) * step,
                value=mean_list[i],
                n_samples=count_list[i],
                expected=ratio,
            )
            for i in range(n_windows)
        ]
        state.closed += n_windows
        state.values.extend(mean_list)
        if self.history_limit is not None and len(state.values) > self.history_limit:
            drop = len(state.values) - self.history_limit
            del state.values[:drop]
            state.trimmed += drop
        self._count("windows_closed", n_windows)
        self._count("samples_aggregated", int(counts.sum()))
        n_empty = n_windows - int(np.count_nonzero(counts))
        if n_empty:
            self._count("windows_empty", n_empty)
        n_partial = int(np.count_nonzero((counts > 0) & (counts < ratio)))
        if n_partial:
            self._count("windows_partial", n_partial)
        return closed

    def advance(self) -> list[ClosedWindow]:
        closed: list[ClosedWindow] = []
        for kid in self.bus.take_dirty():
            wm_slot = self.bus.watermark_slot_of(kid)
            if wm_slot is None:
                continue
            closed.extend(self._close_up_to(kid, wm_slot))
        return closed

    def flush(self) -> list[ClosedWindow]:
        closed: list[ClosedWindow] = []
        for kid in self.bus.live_kids():
            max_slot = self.bus.max_slot_of(kid)
            if max_slot is None:
                continue
            closed.extend(self._close_up_to(kid, max_slot + 1))
            leftover_slots, __ = self.bus.consume_span(kid, max_slot + 1)
            if leftover_slots.size:
                self._count("samples_discarded_at_flush", int(leftover_slots.size))
        return closed


# ---------------------------------------------------------------------------
# One-pass close vs the per-key oracle
# ---------------------------------------------------------------------------
def _pair(lateness, window, history_limit):
    new_bus = IngestBus(allowed_lateness=lateness)
    old_bus = LegacyBus(allowed_lateness=lateness)
    return (
        (new_bus, WindowAggregator(new_bus, window, history_limit=history_limit)),
        (old_bus, LegacyAggregator(old_bus, window, history_limit=history_limit)),
    )


def _state(bus: IngestBus, agg: WindowAggregator, names: list[str]) -> str:
    """Everything observable about a bus + aggregator pair, as a repr (NaN-safe)."""
    series = {}
    for name in names:
        try:
            s = agg.series(name, "cpu")
        except DataError as exc:
            series[name] = str(exc)
        else:
            series[name] = (repr(s.start), s.values.tobytes(), s.name)
    return repr({
        "agg_counters": sorted(agg.counters.items()),
        "bus_counters": sorted(bus.counters.items()),
        "buffers": [None if buf is None else list(buf.items()) for buf in bus._slots],
        "min": list(bus._min_slot),
        "max": list(bus._max_slot),
        "frontier": list(bus._frontier),
        "any_frontier": bus._any_frontier,
        "buffered": bus.buffered,
        "dirty": sorted(bus._dirty),
        "export": {name: agg.export_state(name, "cpu") for name in names},
        "closed": {name: agg.windows_closed(name, "cpu") for name in names},
        "series": series,
    })


def _deliveries(rng, n_keys, ratio, n_windows, jitter, dup_rate, stale_rate, idle_rate):
    """Chunks of (instance, metric, timestamp, value) columns, delivery-ordered."""
    rows = []
    for k in range(n_keys):
        name = f"db{k:02d}"
        offset = int(rng.integers(0, ratio))  # keys start off the window grid
        for w in range(n_windows):
            if w and rng.random() < idle_rate:
                continue  # the key is idle for this window
            for q in range(ratio):
                if rng.random() < 0.1:
                    continue  # a missed poll: a partial window
                slot = offset + w * ratio + q
                ts = slot * STEP + float(rng.uniform(-0.2, 0.2)) * STEP
                value = float(np.round(rng.normal(50.0, 10.0), int(rng.integers(0, 12))))
                rows.append((ts + rng.uniform(0.0, jitter), name, ts, value))
                if rng.random() < dup_rate:
                    rows.append((ts + rng.uniform(0.0, jitter), name, ts, value + 1.0))
                if rng.random() < stale_rate:  # far behind the frontier
                    old = ts - float(rng.integers(ratio, 3 * ratio)) * STEP
                    rows.append((ts + rng.uniform(0.0, jitter), name, old, value))
    rows.sort(key=lambda row: row[0])
    chunks, at = [], 0
    while at < len(rows):
        size = int(rng.integers(1, 4 * n_keys * ratio))
        chunk = rows[at : at + size]
        chunks.append((
            [row[1] for row in chunk],
            ["cpu"] * len(chunk),
            np.array([row[2] for row in chunk]),
            np.array([row[3] for row in chunk]),
        ))
        at += size
    return chunks


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_keys=st.integers(1, 12),
    lateness=st.sampled_from([0.0, 1800.0, math.inf]),
    daily=st.booleans(),
    n_windows=st.integers(2, 9),
    jitter=st.sampled_from([0.0, 1200.0, 5400.0]),
    dup_rate=st.sampled_from([0.0, 0.02, 0.3]),
    stale_rate=st.sampled_from([0.0, 0.05]),
    idle_rate=st.sampled_from([0.0, 0.3]),
    history_limit=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_pass_close_equals_the_per_key_close(
    n_keys, lateness, daily, n_windows, jitter, dup_rate, stale_rate, idle_rate,
    history_limit, seed,
):
    """advance() and flush() match the per-key close in every observable.

    Covers: hourly windows (4 polls, the bincount means) and daily
    windows over 15-minute polls (96 polls, one np.mean per window);
    lateness 0, 1800 s and inf (nothing closes before the flush);
    jittered, duplicated and arbitrarily chunked deliveries; samples
    below the frontier; keys idle for whole windows, so several windows,
    some empty, close at once; first hours delivered out of order, which
    move a key's grid anchor before its first close; and the flush.
    """
    rng = np.random.default_rng(seed)
    ratio = 96 if daily else 4
    window = Frequency.DAILY if daily else Frequency.HOURLY
    if daily:
        n_windows = min(n_windows, 4)
        jitter *= 8
    names = [f"db{k:02d}" for k in range(n_keys)]
    (new_bus, new_agg), (old_bus, old_agg) = _pair(lateness, window, history_limit)
    chunks = _deliveries(rng, n_keys, ratio, n_windows, jitter, dup_rate, stale_rate, idle_rate)
    for columns in chunks:
        assert new_bus.push_columns(*columns) == old_bus.push_columns(*columns)
        if rng.random() < 0.7:
            new_closed, old_closed = new_agg.advance(), old_agg.advance()
            assert [repr(w) for w in new_closed] == [repr(w) for w in old_closed]
            if len({w.instance for w in new_closed}) < len(new_closed):
                event("a key closed several windows in one advance")
            assert _state(new_bus, new_agg, names) == _state(old_bus, old_agg, names)
    new_closed, old_closed = new_agg.flush(), old_agg.flush()
    assert [repr(w) for w in new_closed] == [repr(w) for w in old_closed]
    assert _state(new_bus, new_agg, names) == _state(old_bus, old_agg, names)
    for counter in ("windows_closed", "windows_empty", "windows_partial"):
        if new_agg.counters.get(counter):
            event(counter)
    for counter in ("samples_late_dropped", "samples_duplicate", "samples_out_of_order"):
        if new_bus.counters.get(counter):
            event(counter)


def test_several_windows_and_empty_ones_close_at_once():
    """A key idle for two hours closes three windows, two of them empty, in one advance."""
    (new_bus, new_agg), (old_bus, old_agg) = _pair(0.0, Frequency.HOURLY, None)
    for bus in (new_bus, old_bus):
        first = np.arange(8.0) % 4 * STEP
        bus.push_columns(["a"] * 4 + ["b"] * 4, ["cpu"] * 8, first, np.arange(8.0))
        late = np.array([4.0, 12.0]) * STEP
        bus.push_columns(["a", "b"], ["cpu"] * 2, late, np.array([1.0, 2.0]))
    new_closed, old_closed = new_agg.advance(), old_agg.advance()
    assert [repr(w) for w in new_closed] == [repr(w) for w in old_closed]
    assert [(w.instance, w.n_samples) for w in new_closed] == [
        ("a", 4), ("b", 4), ("b", 0), ("b", 0)
    ]
    assert new_agg.counters == old_agg.counters


@settings(max_examples=80, deadline=None)
@given(
    slots=st.lists(st.integers(0, 40), max_size=30),
    upto=st.integers(-2, 45),
    start=st.one_of(st.none(), st.integers(-2, 45)),
    frontier=st.one_of(st.none(), st.integers(0, 20)),
)
def test_consume_span_is_the_one_key_batched_consume(slots, upto, start, frontier):
    """consume_span and consume equal the per-key pop on any buffer."""
    buses = (IngestBus(), LegacyBus())
    for bus in buses:
        if slots:
            bus.adopt_buffer(
                "db", "cpu",
                {
                    "slots": {s: float(s) / 3.0 for s in slots},
                    "min_slot": min(slots),
                    "max_slot": max(slots),
                    "frontier_slot": frontier,
                },
            )
        else:
            bus.push_columns(["db"], ["cpu"], np.array([-99.0 * STEP]), np.ones(1))
            bus.consume(("db", "cpu"), upto_slot=-50)
    got = [bus.consume_span(0, upto, start) for bus in buses]
    assert got[0][0].tobytes() == got[1][0].tobytes()
    assert got[0][1].tobytes() == got[1][1].tobytes()
    new, old = buses
    assert list(new._slots[0].items()) == list(old._slots[0].items())
    assert (new._frontier, new.buffered, new._any_frontier) == (
        old._frontier, old.buffered, old._any_frontier
    )
    assert new.counters == old.counters
    assert new.consume(("db", "cpu"), upto + 3) == old.consume(("db", "cpu"), upto + 3)


# ---------------------------------------------------------------------------
# Oracle: the per-key day-profile label chain, verbatim
# ---------------------------------------------------------------------------
def oracle_chain(self, n_steps: int) -> list[int]:
    out: list[int] = []
    current = int(self.labels[-1])
    for _ in range(n_steps):
        current = _step_label(self.transition, current, self.spec.seed)
        out.append(current)
    return out


def oracle_position_arrays(self, horizon: int):
    m = self.spec.period
    offsets = self.phase + np.arange(horizon)
    slots = offsets % m
    steps = offsets // m + 1  # days past the last complete day
    chain = oracle_chain(self, int(steps[-1]))
    labels = np.asarray([chain[s - 1] for s in steps], dtype=np.int64)
    return slots, steps, labels


def oracle_forecast(self, horizon: int, alpha: float = 0.05):
    slots, steps, labels = oracle_position_arrays(self, horizon)
    mean = self.centroids[labels, slots]
    std = self.band_stds[labels, slots] * np.sqrt(steps.astype(float))
    return self.make_forecast(mean, std, alpha)


def oracle_advance_cohort(models, values):
    values = np.ascontiguousarray(values, dtype=float)
    spec = _cohort_spec(models)
    m = spec.period
    seed = spec.seed
    n_new = values.shape[1]

    innovations = np.empty_like(values)
    out = []
    for i, model in enumerate(models):
        phase0 = model.phase
        tail = np.concatenate(
            [model.train.values[len(model.train) - phase0 :], values[i]]
        )
        closed = tail.size // m
        if closed:
            z = _znorm(tail[: closed * m].reshape(closed, m))
            dist = ((z[:, None, :] - model.z_centroids[None, :, :]) ** 2).sum(axis=2)
            day_labels = dist.argmin(axis=1)
            labels = np.concatenate([model.labels, day_labels])
        else:
            day_labels = np.empty(0, dtype=np.int64)
            labels = model.labels
        offsets = phase0 + np.arange(n_new)
        closed_before = offsets // m  # tail days complete before each position
        base = np.concatenate([[int(model.labels[-1])], day_labels])[closed_before]
        step_memo = {
            int(lab): _step_label(model.transition, int(lab), seed)
            for lab in np.unique(base)
        }
        pred = np.asarray([step_memo[int(lab)] for lab in base], dtype=np.int64)
        innovations[i] = values[i] - model.centroids[pred, offsets % m]
        out.append(
            replace(
                model,
                train=replace(
                    model.train,
                    values=np.concatenate([model.train.values, values[i]]),
                ),
                residuals=np.concatenate([model.residuals, innovations[i]]),
                labels=labels,
                phase=int(tail.size - closed * m),
            )
        )
    return out, innovations


def oracle_forecast_cohort_arrays(models, horizon, alpha=0.05):
    from repro.core.stats import band_z

    spec = _cohort_spec(models)
    m = spec.period
    B = len(models)
    offsets = np.asarray([model.phase for model in models])[:, None] + np.arange(horizon)[None, :]
    slots = offsets % m
    steps = offsets // m + 1
    labels_per_pos = np.empty_like(slots)
    for i, model in enumerate(models):
        chain = oracle_chain(model, int(steps[i, -1]))
        labels_per_pos[i] = np.asarray(chain, dtype=np.int64)[steps[i] - 1]
    rows = np.arange(B)[:, None]
    cent = np.stack([model.centroids for model in models])
    stds = np.stack([model.band_stds for model in models])
    mean = cent[rows, labels_per_pos, slots]
    std = stds[rows, labels_per_pos, slots] * np.sqrt(steps.astype(float))
    z = band_z(alpha)
    return mean, mean - z * std, mean + z * std


# ---------------------------------------------------------------------------
# Day-profile block labels vs the per-key oracle
# ---------------------------------------------------------------------------
def _cohort(rng, size, period, k, seed):
    """``size`` same-spec fits on short, differently phased histories."""
    models = []
    hours = np.arange(period)
    shapes = [
        10.0 * np.sin(2 * np.pi * (hours + j) / period) + 3.0 * j for j in range(k + 1)
    ]
    for __ in range(size):
        n_days = int(rng.integers(max(k, 3), k + 4))  # short label sequences: tied rows
        days = [shapes[int(rng.integers(0, k + 1))] for __ in range(n_days)]
        phase = int(rng.integers(0, period))
        y = np.concatenate(days + [shapes[0][:phase]])
        y = y + rng.normal(0.0, 0.5, y.size)
        models.append(
            DayProfile(n_clusters=k, period=period, seed=seed).fit(
                TimeSeries(y + 50.0, Frequency.HOURLY)
            )
        )
    return models


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    size=st.sampled_from([1, 3, 17]),
    period=st.sampled_from([3, 24]),
    k=st.sampled_from([2, 3, 4]),
    roll=st.sampled_from(["one", "m-1", "m", "2m+1"]),
    seed=st.integers(0, 2**16),
)
def test_block_labels_equal_the_per_key_chain(size, period, k, roll, seed):
    """Cohort roll and forecast equal the per-key code, byte for byte.

    Rolls of 1, m−1, m and 2m+1 values from per-row phases complete 0, 1
    or 2 days per row; fits on k to k+3 days leave transition rows with
    exact ties, which go through the blake2b tie-break.
    """
    rng = np.random.default_rng(seed)
    models = _cohort(rng, size, period, k, seed % 7)
    n_new = {"one": 1, "m-1": period - 1, "m": period, "2m+1": 2 * period + 1}[roll]
    values = rng.normal(50.0, 8.0, (size, n_new))

    for model in models:
        rows = model.transition
        if (np.count_nonzero(rows >= rows.max(axis=1, keepdims=True), axis=1) > 1).any():
            event("a transition row with a tied maximum")
    rolled, innovations = advance_cohort(models, values)
    expected, expected_innovations = oracle_advance_cohort(models, values)
    for model, out in zip(models, rolled):
        event(f"a row completed {len(out.labels) - len(model.labels)} day(s)")
    assert innovations.tobytes() == expected_innovations.tobytes()
    for got, want in zip(rolled, expected):
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.labels.dtype == want.labels.dtype
        assert got.phase == want.phase
        assert got.train.values.tobytes() == want.train.values.tobytes()
        assert got.residuals.tobytes() == want.residuals.tobytes()

    for horizon, alpha in ((1, 0.05), (period, 0.2), (2 * period + 5, 0.05)):
        for cohort in (models, rolled):
            bands = forecast_cohort_arrays(cohort, horizon, alpha)
            want = oracle_forecast_cohort_arrays(cohort, horizon, alpha)
            assert [b.tobytes() for b in bands] == [w.tobytes() for w in want]
            for i, model in enumerate(cohort):
                fc, ref = model.forecast(horizon, alpha), oracle_forecast(model, horizon, alpha)
                for band, part in zip(bands, ("mean", "lower", "upper")):
                    got_part, ref_part = getattr(fc, part), getattr(ref, part)
                    assert got_part.values.tobytes() == ref_part.values.tobytes()
                    assert got_part.values.tobytes() == band[i].tobytes()
                    assert (got_part.start, got_part.name) == (ref_part.start, ref_part.name)


def test_tied_rows_take_the_digest_tie_break():
    """A fully tied transition row steps to the digest's pick, not to argmax."""
    rng = np.random.default_rng(3)
    fitted = _cohort(rng, 1, 24, 3, 0)[0]
    tied = np.full((3, 3), 1.0 / 3.0)
    # The first spec seed whose digest does not pick argmax's label 0.
    model = next(
        candidate
        for candidate in (
            replace(fitted, transition=tied, spec=replace(fitted.spec, seed=s))
            for s in range(64)
        )
        if _step_label(tied, int(candidate.labels[-1]), candidate.spec.seed) != 0
    )
    pick = _step_label(tied, int(model.labels[-1]), model.spec.seed)
    fc = model.forecast(24 - model.phase)
    assert np.array_equal(fc.mean.values, model.centroids[pick, model.phase :])
    rolled, innovations = model.advance(np.array([50.0]))
    assert innovations[0] == 50.0 - model.centroids[pick, model.phase]
