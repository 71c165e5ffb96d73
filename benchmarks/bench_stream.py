"""Streaming layer throughput and latency.

The streaming loop's operational promise is that live serving is cheap:
ingest is bookkeeping, window finalisation is a dictionary sweep, and
the scheduler only pays for model fits when the staleness rules demand
one. This bench pins numbers on each stage:

* ingest-bus throughput — raw polls/s through ``push_chunk`` (the
  runtime's intake) including dedup, watermark and backpressure
  bookkeeping, on a mangled (jittered + duplicated) delivery order;
* ingest fast path — the same SoA envelope through ``push_columns``
  versus the scalar reference (rebuild ``AgentSample`` rows, ``push``
  one at a time) at estate scale (100k keys), with a parity check that
  both buses land byte-identical counters;
* sparse-tick finalisation — ``advance()`` over a dirty set of ~64
  touched keys must cost the same on a 1k-key and a 100k-key estate
  (dirty-key tracking makes quiet keys free);
* window finalisation rate — hourly windows closed per second as the
  watermark advances over a multi-key stream;
* one-pass window close — ``advance()`` on serve's delivery shape
  against the former key-by-key close, outputs asserted equal;
* end-to-end scheduler latency — a replayed multi-day two-instance
  cluster through :class:`~repro.stream.StreamRuntime` with real (HES)
  selections, reporting per-tick latency and confirming the selection
  cache kept refits to the staleness events, not every tick.

Results are printed as a paper-style table and written machine-readable
to ``benchmarks/output/BENCH_stream.json`` for CI trend tracking. Set
``REPRO_REDUCED_GRID=1`` (the CI smoke mode) for a seconds-scale run.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.agent import AgentSample, MonitoringAgent
from repro.core import Frequency, TimeSeries
from repro.models import HoltWinters
from repro.reporting import Table
from repro.selection import AutoConfig
from repro.selection.auto import SelectionOutcome
from repro.service import EstatePlanner, SelectionCache
from repro.stream import (
    ClosedWindow,
    ForecastScheduler,
    IngestBus,
    StreamConfig,
    StreamRuntime,
    WindowAggregator,
)
from repro.workloads import OltpExperiment, generate_oltp_run

from .conftest import write_bench_json

REDUCED = os.environ.get("REPRO_REDUCED_GRID", "") not in ("", "0")

BENCH_JSON = "BENCH_stream.json"

N_INGEST = 50_000 if REDUCED else 400_000
N_KEYS = 8
STREAM_DAYS = 5.0 if REDUCED else 16.0
MIN_OBSERVATIONS = 72 if REDUCED else 336


def _poll_stream(n_samples: int, n_keys: int) -> list[AgentSample]:
    """A mangled multi-key 15-minute poll stream (seeded, reusable)."""
    per_key = n_samples // n_keys
    samples = [
        AgentSample(
            instance=f"db{k:02d}",
            metric="cpu",
            timestamp=i * 900.0,
            value=50.0 + (i % 96) * 0.1,
        )
        for k in range(n_keys)
        for i in range(per_key)
    ]
    mangler = StreamRuntime(config=StreamConfig(jitter_seconds=1200.0, seed=11))
    return mangler.delivery_order(samples)


@pytest.fixture(scope="module")
def mangled_stream():
    return _poll_stream(N_INGEST, N_KEYS)


def test_ingest_throughput(mangled_stream):
    bus = IngestBus(allowed_lateness=1800.0)
    t0 = time.perf_counter()
    accepted = bus.push_chunk(mangled_stream)
    elapsed = time.perf_counter() - t0
    rate = len(mangled_stream) / elapsed

    table = Table(
        ["Delivered", "Accepted", "Duplicates", "Seconds", "Samples/s"],
        title="Ingest bus throughput",
    )
    table.add_row(
        [
            str(len(mangled_stream)),
            str(accepted),
            str(bus.counters.get("samples_duplicate", 0)),
            f"{elapsed:.3f}",
            f"{rate:,.0f}",
        ]
    )
    print()
    table.print()
    write_bench_json(
        BENCH_JSON,
        "ingest",
        {
            "delivered": len(mangled_stream),
            "accepted": accepted,
            "samples_per_second": rate,
            "reduced": REDUCED,
        },
    )
    assert accepted > 0
    # Bookkeeping, not modelling: even reduced CI boxes should clear this.
    assert rate > 10_000


def test_ingest_fastpath_100k_keys():
    """Columnar vs per-sample intake from the same SoA envelope.

    Both legs start at the shard envelope boundary — four parallel
    columns — and feed an equally warm bus (key table interned, every
    key holding buffered slots). The per-sample leg is the scalar
    reference: rebuild an ``AgentSample`` per row and ``push`` the batch
    one sample at a time. The columnar leg hands
    the columns straight to ``push_columns``. Each envelope carries two
    hours of 15-minute polls per key (groups of 8 after the key-id
    sort), delivered round-by-round with per-round key shuffling —
    per-key FIFO order, cross-key interleaving, the shape an agent
    fleet actually produces. Parity is asserted, not assumed: both
    buses must finish with identical counters.
    """
    import gc

    n_keys = 10_000 if REDUCED else 100_000
    rounds = 8
    warm_rounds = 2
    repeats = 2
    instances_pool = [f"db{k:06d}" for k in range(n_keys)]

    def envelope(base_slot: int, n_rounds: int, seed: int):
        rng = np.random.default_rng(seed)
        inst: list[str] = []
        ts: list[float] = []
        vals: list[float] = []
        for i in range(n_rounds):
            for k in rng.permutation(n_keys):
                inst.append(instances_pool[k])
                ts.append((base_slot + i) * 900.0)
                vals.append(50.0 + (k % 7) + 0.1 * i)
        return (
            inst,
            ["cpu"] * (n_keys * n_rounds),
            np.array(ts),
            np.array(vals),
        )

    def per_sample(bus: IngestBus, columns) -> int:
        # The scalar reference ladder from the envelope boundary.
        inst, mets, ts, vals = columns
        chunk = [
            AgentSample(instance=i, metric=m, timestamp=float(t), value=float(v))
            for i, m, t, v in zip(inst, mets, ts, vals)
        ]
        return sum(1 for sample in chunk if bus.push(sample))

    n = n_keys * rounds
    best = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for rep in range(repeats):
            warm = envelope(0, warm_rounds, seed=31 + rep)
            timed = envelope(warm_rounds, rounds, seed=47 + rep)

            bus_col = IngestBus(allowed_lateness=1800.0)
            bus_col.push_columns(*warm)
            t0 = time.perf_counter()
            accepted_col = bus_col.push_columns(*timed)
            columnar_s = time.perf_counter() - t0

            bus_seq = IngestBus(allowed_lateness=1800.0)
            per_sample(bus_seq, warm)
            t0 = time.perf_counter()
            accepted_seq = per_sample(bus_seq, timed)
            per_sample_s = time.perf_counter() - t0

            assert accepted_col == accepted_seq == n
            assert bus_col.counters == bus_seq.counters  # sample-for-sample parity
            if best is None or columnar_s < best["columnar_s"]:
                best = {"columnar_s": columnar_s, "per_sample_s": per_sample_s}
            else:
                best["per_sample_s"] = min(best["per_sample_s"], per_sample_s)
    finally:
        if gc_was_enabled:
            gc.enable()

    columnar_rate = n / best["columnar_s"]
    per_sample_rate = n / best["per_sample_s"]
    speedup = best["per_sample_s"] / best["columnar_s"]

    table = Table(
        ["Keys", "Rows", "columnar samples/s", "per-sample samples/s", "speedup"],
        title="Ingest fast path (columnar vs per-sample)",
    )
    table.add_row(
        [
            str(n_keys),
            str(n),
            f"{columnar_rate:,.0f}",
            f"{per_sample_rate:,.0f}",
            f"{speedup:.1f}x",
        ]
    )
    print()
    table.print()
    write_bench_json(
        BENCH_JSON,
        "ingest_fastpath",
        {
            "n_keys": n_keys,
            "rows": n,
            "samples_per_s_100k": columnar_rate,
            "per_sample_samples_per_s": per_sample_rate,
            "speedup": speedup,
            "reduced": REDUCED,
        },
    )
    # The acceptance bar: one vectorized pass beats per-sample dispatch
    # by 5x at estate scale (reduced boxes get a noise-tolerant floor).
    assert speedup >= (2.0 if REDUCED else 5.0), best


def test_sparse_advance_independent_of_estate():
    """``advance()`` on a quiet estate costs O(touched), not O(keys).

    Two fully-live stacks — 1k keys and 100k keys (10k reduced) — each
    receive the identical sparse tick load: 64 keys get one hour of
    polls, everyone else stays idle, then the aggregator advances. The
    dirty-set contract says the 100x-larger estate must not make the
    tick measurably more expensive; the bound below allows generous
    noise (4x) while ruling out any O(estate) sweep (100x).
    """
    small, large = (1_000, 10_000) if REDUCED else (1_000, 100_000)
    touched = 64
    n_ticks = 30 if REDUCED else 50

    def build(n_keys: int):
        bus = IngestBus(allowed_lateness=0.0)
        agg = WindowAggregator(bus)
        names = [f"db{k:06d}" for k in range(n_keys)]
        # Warm every key with one full hour so the whole estate is live.
        inst = names * 4
        mets = ["cpu"] * (n_keys * 4)
        ts = np.array([s * 900.0 for s in range(4) for __ in range(n_keys)])
        vals = np.full(n_keys * 4, 42.0)
        bus.push_columns(inst, mets, ts, vals)
        agg.advance()
        return bus, agg, names

    def sparse_ms_per_tick(n_keys: int) -> float:
        bus, agg, names = build(n_keys)
        active = names[:touched]
        mets = ["cpu"] * (touched * 4)
        advance_s = 0.0
        for tick in range(1, n_ticks + 1):
            ts = np.array(
                [(tick * 4 + s) * 900.0 for s in range(4) for __ in range(touched)]
            )
            vals = np.full(touched * 4, 42.0 + tick)
            bus.push_columns(active * 4, mets, ts, vals)
            t0 = time.perf_counter()
            closed = agg.advance()
            advance_s += time.perf_counter() - t0
            assert len(closed) == touched  # each touched key closes one hour
        return 1e3 * advance_s / n_ticks

    small_ms = sparse_ms_per_tick(small)
    large_ms = sparse_ms_per_tick(large)

    table = Table(
        ["Estate keys", "touched/tick", "advance ms/tick"],
        title="Sparse-tick advance cost vs estate size",
    )
    table.add_row([str(small), str(touched), f"{small_ms:.3f}"])
    table.add_row([str(large), str(touched), f"{large_ms:.3f}"])
    print()
    table.print()
    write_bench_json(
        BENCH_JSON,
        "ingest_fastpath",
        {
            "small_keys": small,
            "large_keys": large,
            "touched_per_tick": touched,
            "sparse_advance_ms": large_ms,
            "sparse_advance_ms_small": small_ms,
        },
    )
    assert large_ms <= small_ms * 4.0 + 0.2, (small_ms, large_ms)


def test_window_finalisation_rate(mangled_stream):
    bus = IngestBus(allowed_lateness=1800.0)
    agg = WindowAggregator(bus)
    batch = 4096
    t0 = time.perf_counter()
    for lo in range(0, len(mangled_stream), batch):
        bus.push_chunk(mangled_stream[lo : lo + batch])
        agg.advance()
    agg.flush()
    elapsed = time.perf_counter() - t0
    closed = agg.counters["windows_closed"]
    rate = closed / elapsed

    table = Table(
        ["Keys", "Windows closed", "Seconds", "Windows/s"],
        title="Window finalisation",
    )
    table.add_row([str(N_KEYS), str(closed), f"{elapsed:.3f}", f"{rate:,.0f}"])
    print()
    table.print()
    write_bench_json(
        BENCH_JSON,
        "windows",
        {
            "keys": N_KEYS,
            "windows_closed": closed,
            "windows_per_second": rate,
            "reduced": REDUCED,
        },
    )
    assert closed == agg.counters["windows_closed"]
    assert rate > 100


def _legacy_consume_span(bus, kid, upto_slot, from_slot=None):
    """The per-key pop ``IngestBus.consume_span`` ran before the one-pass close."""
    slots_dict = bus._slots[kid]
    if not slots_dict:
        if upto_slot > bus._frontier[kid]:
            bus._frontier[kid] = upto_slot
            bus._any_frontier = True
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    held = len(slots_dict)
    slots = np.fromiter(slots_dict.keys(), dtype=np.int64, count=held)
    vals = np.fromiter(slots_dict.values(), dtype=np.float64, count=held)
    take = slots < upto_slot
    n_take = int(take.sum())
    if n_take:
        bus._buffered -= n_take
        if n_take == held:
            slots_dict.clear()
        else:
            keep = ~take
            bus._slots[kid] = dict(zip(slots[keep].tolist(), vals[keep].tolist()))
    if from_slot is not None:
        stale = take & (slots < from_slot)
        n_stale = int(stale.sum())
        if n_stale:
            bus._count("samples_late_dropped", n_stale)
            take &= ~stale
    if upto_slot > bus._frontier[kid]:
        bus._frontier[kid] = upto_slot
        bus._any_frontier = True
    return slots[take], vals[take]


def _legacy_close_up_to(agg, kid, limit_slot):
    """The per-key window close ``WindowAggregator`` ran before the one-pass close."""
    from repro.stream.aggregate import _KeyWindows

    state = agg._keys.setdefault(kid, _KeyWindows())
    if state.closed == 0:
        min_slot = agg.bus.min_slot_of(kid)
        if min_slot is None:
            return []
        state.anchor_slot = min_slot
    ratio = agg.ratio
    n_windows = (limit_slot - state.anchor_slot) // ratio - state.closed
    if n_windows <= 0:
        return []
    base = state.anchor_slot + state.closed * ratio
    upto = base + n_windows * ratio
    slots, values = _legacy_consume_span(agg.bus, kid, upto, from_slot=base)
    window_idx = (slots - base) // ratio
    counts = np.bincount(window_idx, minlength=n_windows)
    with np.errstate(invalid="ignore"):  # serve's hourly windows: ratio 4
        means = np.bincount(window_idx, weights=values, minlength=n_windows) / counts
    instance, metric = agg.bus.key_table.key_of(kid)
    step = agg.bus.step
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
    agg._count("windows_closed", n_windows)
    agg._count("samples_aggregated", int(counts.sum()))
    n_empty = n_windows - int(np.count_nonzero(counts))
    if n_empty:
        agg._count("windows_empty", n_empty)
    n_partial = int(np.count_nonzero((counts > 0) & (counts < ratio)))
    if n_partial:
        agg._count("windows_partial", n_partial)
    return closed


def _legacy_advance(agg):
    """``WindowAggregator.advance`` as it ran before the one-pass close: key by key."""
    closed = []
    for kid in agg.bus.take_dirty():
        wm_slot = agg.bus.watermark_slot_of(kid)
        if wm_slot is None:
            continue
        closed.extend(_legacy_close_up_to(agg, kid, wm_slot))
    return closed


def test_window_close_one_pass():
    """Window close per tick: one array pass against the per-key close.

    Serve's delivery shape: every key polls four times an hour, each
    hour is delivered as one mangled batch (1200 s jitter, 2 %
    duplicates) through ``push_columns``, and the advance after it
    closes one window per key. Both legs get identical buses and
    deliveries; only the close differs (``advance()`` against the former
    per-key close, kept above as ``_legacy_advance``). The legs
    alternate three times with the collector off, each reads its
    fastest repeat, and their closed windows and counters must match.
    """
    import gc

    from repro.stream.runtime import mangle_delivery

    n_keys = 256 if REDUCED else 1000
    n_ticks = 24
    repeats = 3
    rng = np.random.default_rng(19)
    names = [f"db{k:04d}" for k in range(n_keys)]
    levels = rng.uniform(20.0, 80.0, n_keys)
    deliveries = []
    for hour in range(n_ticks + 1):  # hour 0 only opens the first window
        samples = [
            AgentSample(name, "cpu", (hour * 4 + q) * 900.0, float(level + rng.normal(0, 3)))
            for name, level in zip(names, levels)
            for q in range(4)
        ]
        mangled = mangle_delivery(samples, rng, 1200.0, 0.02)
        deliveries.append((
            [s.instance for s in mangled],
            [s.metric for s in mangled],
            np.array([s.timestamp for s in mangled]),
            np.array([s.value for s in mangled]),
        ))

    def leg(close) -> tuple[float, list, dict]:
        bus = IngestBus(allowed_lateness=1800.0)
        agg = WindowAggregator(bus)
        out, seconds = [], 0.0
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for hour, columns in enumerate(deliveries):
                bus.push_columns(*columns)
                t0 = time.perf_counter()
                closed = close(agg)
                if hour:
                    seconds += time.perf_counter() - t0
                out.append(closed)
        finally:
            if gc_was_enabled:
                gc.enable()
        assert sum(len(closed) for closed in out) == n_ticks * n_keys
        return seconds / n_ticks, out, (dict(agg.counters), dict(bus.counters), bus.buffered)

    one_pass, legacy = [], []
    for __ in range(repeats):
        s_new, out_new, counters_new = leg(WindowAggregator.advance)
        s_old, out_old, counters_old = leg(_legacy_advance)
        assert [repr(c) for c in out_new] == [repr(c) for c in out_old]
        assert counters_new == counters_old
        one_pass.append(s_new)
        legacy.append(s_old)
    new_ms, old_ms = 1e3 * min(one_pass), 1e3 * min(legacy)
    speedup = old_ms / new_ms

    table = Table(
        ["Keys", "one-pass ms/tick", "per-key ms/tick", "speedup"],
        title="Window close per tick",
    )
    table.add_row([str(n_keys), f"{new_ms:.3f}", f"{old_ms:.3f}", f"{speedup:.2f}x"])
    print()
    table.print()
    write_bench_json(
        BENCH_JSON,
        "window_close",
        {
            "keys": n_keys,
            "ticks": n_ticks,
            "repeats": repeats,
            "ms_per_tick_1000": new_ms,
            "legacy_ms_per_tick": old_ms,
            "speedup_vs_legacy": speedup,
            "reduced": REDUCED,
        },
    )
    assert speedup >= 2.0, (new_ms, old_ms)


def test_scheduler_end_to_end_latency():
    run = generate_oltp_run(OltpExperiment(days=STREAM_DAYS, seed=3), hourly=False)
    agent = MonitoringAgent(seed=3)
    samples = [s for s in agent.poll_run(run) if s.metric == "cpu"]

    planner = EstatePlanner(
        config=AutoConfig(technique="hes", n_jobs=1), cache=SelectionCache()
    )
    runtime = StreamRuntime(
        planner,
        config=StreamConfig(
            thresholds={"cpu": 95.0},
            min_observations=MIN_OBSERVATIONS,
            seed=3,
        ),
    )
    t0 = time.perf_counter()
    runtime.run(samples)
    runtime.finish()
    elapsed = time.perf_counter() - t0

    counters = runtime.telemetry().counters
    windows = counters["windows_closed"]
    ticks = counters["stream_ticks"]
    per_window_ms = 1e3 * elapsed / windows
    per_tick_ms = 1e3 * elapsed / ticks

    table = Table(
        [
            "Polls", "Windows", "Ticks", "Selections", "Cache hits",
            "Seconds", "ms/window", "ms/tick",
        ],
        title="Streaming loop end to end",
    )
    table.add_row(
        [
            str(len(samples)),
            str(windows),
            str(ticks),
            str(counters.get("stream_selection_runs", 0)),
            str(counters.get("selection_cache_hits", 0)),
            f"{elapsed:.2f}",
            f"{per_window_ms:.2f}",
            f"{per_tick_ms:.2f}",
        ]
    )
    print()
    table.print()
    write_bench_json(
        BENCH_JSON,
        "scheduler",
        {
            "polls": len(samples),
            "windows_closed": windows,
            "ticks": ticks,
            "selection_runs": counters.get("stream_selection_runs", 0),
            "cache_hits": counters.get("selection_cache_hits", 0),
            "seconds": elapsed,
            "ms_per_window": per_window_ms,
            "ms_per_tick": per_tick_ms,
            "reduced": REDUCED,
        },
    )
    # Fits happen on staleness events only — far fewer than ticks.
    assert counters["stream_initial_selections"] >= 1
    assert counters.get("stream_selection_runs", 0) < ticks


def test_cohort_tick_scaling(monkeypatch):
    """ms/tick vs key count: the cohort dividend at estate scale.

    One HES model is fitted once and cloned across the whole estate via
    ``dataclasses.replace`` + ``adopt_model`` (zero grid fits), then each
    tick delivers one closed window per key and the same feed runs twice.
    With cohort grading the scheduler rolls every cached state in one
    batched call per cohort and grades the estate through one batched
    forecast. The scalar leg makes that batched forecast raise, so every
    key falls back to the scalar grader and pays full per-call model
    dispatch. The acceptance contract: cohort ticks cost a fraction of
    scalar ticks at every estate size (the batched kernels amortise
    dispatch), and growing the estate 10x never costs more than ~10x
    (per-key cost must not *grow* with estate size).

    A 100-key cohort tick lasts a few milliseconds, so one scheduler
    hiccup moves the ratios a lot. The legs therefore alternate, cohort
    then scalar, ``repeats`` times per estate size; every timed tick
    starts from a fresh ``gc.collect()`` with the collector off inside
    it, and each leg reads the minimum over all its ticks.
    """
    import gc

    key_counts = (100, 1000) if REDUCED else (100, 1000, 10_000)
    seed_hours = 168
    n_ticks = 8
    period = 24
    repeats = 3

    rng = np.random.default_rng(5)
    t = np.arange(seed_hours)
    base = 55.0 + 9.0 * np.sin(2 * np.pi * t / period) + rng.normal(0, 0.8, seed_hours)
    template = HoltWinters(period=period).fit(TimeSeries(base, Frequency.HOURLY))

    def _run(n_keys: int) -> tuple[list[float], dict]:
        planner = EstatePlanner(config=AutoConfig(technique="hes", n_jobs=1))
        sched = ForecastScheduler(
            planner, thresholds={"cpu": 95.0}, min_observations=seed_hours
        )
        for k in range(n_keys):
            name = f"db{k:05d}"
            series = TimeSeries(base, Frequency.HOURLY, name=f"{name}.cpu")
            sched.seed_history(name, "cpu", series)
            outcome = SelectionOutcome(
                model=dataclasses.replace(template, train=series),
                technique="hes",
                test_rmse=1.0,
                best_spec=None,
                seasonality=None,
                shock_calendar=None,
            )
            sched.adopt_model(name, "cpu", outcome)

        per_tick = []
        for tick in range(n_ticks):
            hour = seed_hours + tick
            batch = [
                ClosedWindow(
                    instance=f"db{k:05d}",
                    metric="cpu",
                    start=hour * 3600.0,
                    value=float(base[hour % seed_hours]),
                    n_samples=4,
                    expected=4,
                )
                for k in range(n_keys)
            ]
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = time.perf_counter()
                out = sched.on_windows(batch)
                per_tick.append(time.perf_counter() - t0)
            finally:
                if gc_was_enabled:
                    gc.enable()
            assert len(out.advisories) == n_keys
        counters = sched.trace.counters
        assert counters.get("stream_selection_runs", 0) == 0  # adopted, never fitted
        assert counters.get("stream_rolls_applied", 0) == n_keys * n_ticks
        return per_tick, dict(counters)

    def broken_cohort_forecast(models, horizon, alpha=0.05):
        raise RuntimeError("scalar leg: every key grades alone")

    results = {}
    for n_keys in key_counts:
        cohort_ticks: list[float] = []
        scalar_ticks: list[float] = []
        for __ in range(repeats):
            ticks, counters = _run(n_keys)
            cohort_ticks += ticks
            with monkeypatch.context() as patch:
                patch.setattr(
                    "repro.stream.scheduler.forecast_cohort_arrays", broken_cohort_forecast
                )
                ticks, __ = _run(n_keys)
            scalar_ticks += ticks
        cohort_s, scalar_s = min(cohort_ticks), min(scalar_ticks)
        results[str(n_keys)] = {
            "ms_per_tick": 1e3 * cohort_s,
            "ms_per_tick_scalar": 1e3 * scalar_s,
            "us_per_key_tick": 1e6 * cohort_s / n_keys,
            "dispatch_speedup": scalar_s / cohort_s,
            "cohorts_dispatched": counters.get("stream_cohorts_dispatched", 0),
        }

    table = Table(
        ["Keys", "cohort ms/tick", "scalar ms/tick", "speedup", "us/key/tick"],
        title="Scheduler tick cost vs estate size",
    )
    for n_keys in key_counts:
        e = results[str(n_keys)]
        table.add_row([
            str(n_keys), f"{e['ms_per_tick']:.2f}", f"{e['ms_per_tick_scalar']:.2f}",
            f"{e['dispatch_speedup']:.1f}x", f"{e['us_per_key_tick']:.1f}",
        ])
    print()
    table.print()

    write_bench_json(
        BENCH_JSON,
        "cohort_scaling",
        {
            "key_counts": list(key_counts),
            "ticks": n_ticks,
            "repeats": repeats,
            "reduced": REDUCED,
            "per_keys": results,
            "ms_per_tick_1000": results["1000"]["ms_per_tick"],
            "dispatch_speedup_1000": results["1000"]["dispatch_speedup"],
        },
    )

    for n_keys in key_counts:
        e = results[str(n_keys)]
        assert e["dispatch_speedup"] >= 2.0, (n_keys, e)
    # Estate growth must stay (sub)linear: per-key cost cannot *increase*
    # with key count (13x allows timing noise on a ~linear baseline).
    ratio = results["1000"]["ms_per_tick"] / results["100"]["ms_per_tick"]
    assert ratio < 13.0, f"tick cost scaled {ratio:.1f}x for 10x keys"
    if "10000" in results:
        ratio = results["10000"]["ms_per_tick"] / results["1000"]["ms_per_tick"]
        assert ratio < 13.0, f"tick cost scaled {ratio:.1f}x for 10x keys"



def test_sarima_cohort_serving(monkeypatch):
    """SARIMA serving cost per tick: O(1) rolled state plus cohort grading.

    One SARIMA (1,0,1)(0,1,1,24) model is fitted once and adopted by
    100 and 1000 keys (zero grid fits). Each tick delivers one closed
    window per key: every key continues its CSS filter from O(1) rolled
    state, and all keys grade as one ARIMA cohort (one batched
    difference-equation forecast and one block grade). The scalar leg
    makes the cohort forecast raise, so every key grades alone through
    its own ``forecast``. Legs alternate ``repeats`` times per estate
    size, each timed tick starts after ``gc.collect()`` with the
    collector off, and each leg reads its minimum tick. Every key must
    be rolled and graded on every tick; the 1000-key cohort tick is the
    gated headline, so a change that puts SARIMA back on a per-tick
    history re-filter fails the reduced-grid bench gate.
    """
    import gc

    from repro.models.arima import Arima

    key_counts = (100, 1000)
    seed_hours = 336
    n_ticks = 8
    period = 24
    repeats = 3

    rng = np.random.default_rng(11)
    t = np.arange(seed_hours + n_ticks)
    base = 55.0 + 9.0 * np.sin(2 * np.pi * t / period) + rng.normal(0, 0.8, t.size)
    history = base[:seed_hours]
    template = Arima((1, 0, 1), seasonal=(0, 1, 1, period)).fit(
        TimeSeries(history, Frequency.HOURLY)
    )

    def _run(n_keys: int) -> list[float]:
        planner = EstatePlanner(config=AutoConfig(technique="hes", n_jobs=1))
        sched = ForecastScheduler(
            planner, thresholds={"cpu": 95.0}, min_observations=seed_hours
        )
        for k in range(n_keys):
            name = f"db{k:05d}"
            series = TimeSeries(history, Frequency.HOURLY, name=f"{name}.cpu")
            sched.seed_history(name, "cpu", series)
            outcome = SelectionOutcome(
                model=dataclasses.replace(template, train=series),
                technique="sarimax",
                test_rmse=1.0,
                best_spec=None,
                seasonality=None,
                shock_calendar=None,
            )
            sched.adopt_model(name, "cpu", outcome)

        per_tick = []
        for tick in range(n_ticks):
            hour = seed_hours + tick
            batch = [
                ClosedWindow(
                    instance=f"db{k:05d}",
                    metric="cpu",
                    start=hour * 3600.0,
                    value=float(base[hour]),
                    n_samples=4,
                    expected=4,
                )
                for k in range(n_keys)
            ]
            rolls = sched.trace.counters.get("stream_rolls_applied", 0)
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = time.perf_counter()
                out = sched.on_windows(batch)
                per_tick.append(time.perf_counter() - t0)
            finally:
                if gc_was_enabled:
                    gc.enable()
            assert len(out.advisories) == n_keys
            assert not [a for a in out.advisories.values() if a.degraded]
            assert sched.trace.counters["stream_rolls_applied"] - rolls == n_keys
        assert sched.trace.counters.get("stream_selection_runs", 0) == 0
        return per_tick

    def broken_cohort_forecast(models, horizon, alpha=0.05):
        raise RuntimeError("scalar leg: every key grades alone")

    results = {}
    for n_keys in key_counts:
        cohort_ticks: list[float] = []
        scalar_ticks: list[float] = []
        for __ in range(repeats):
            cohort_ticks += _run(n_keys)
            with monkeypatch.context() as patch:
                patch.setattr(
                    "repro.stream.scheduler.arima_forecast_cohort_arrays", broken_cohort_forecast
                )
                scalar_ticks += _run(n_keys)
        cohort_s, scalar_s = min(cohort_ticks), min(scalar_ticks)
        results[str(n_keys)] = {
            "ms_per_tick": 1e3 * cohort_s,
            "ms_per_tick_scalar": 1e3 * scalar_s,
            "us_per_key_tick": 1e6 * cohort_s / n_keys,
            "cohort_speedup": scalar_s / cohort_s,
        }

    table = Table(
        ["Keys", "cohort ms/tick", "scalar ms/tick", "speedup", "us/key/tick"],
        title="SARIMA serving tick cost vs estate size",
    )
    for n_keys in key_counts:
        e = results[str(n_keys)]
        table.add_row([
            str(n_keys), f"{e['ms_per_tick']:.2f}", f"{e['ms_per_tick_scalar']:.2f}",
            f"{e['cohort_speedup']:.1f}x", f"{e['us_per_key_tick']:.1f}",
        ])
    print()
    table.print()

    write_bench_json(
        BENCH_JSON,
        "sarima_serving",
        {
            "key_counts": list(key_counts),
            "history_hours": seed_hours,
            "ticks": n_ticks,
            "repeats": repeats,
            "per_keys": results,
            "ms_per_tick_1000": results["1000"]["ms_per_tick"],
        },
    )

def test_dayprofile_serving_vs_seasonal_naive():
    """Day-profile serving cost per tick against the seasonal-naive rung.

    The day-profile family earns its slot in the degradation ladder (and
    the grid) only if serving it stays in the same cost class as the
    floor it sits above. Two estates, identical key count and feed:

    * **day-profile** — every key adopts a pre-fitted
      :class:`~repro.models.dayprofile.FittedDayProfile` (cloned from
      one template, zero grid fits) and serves through cohort grading:
      one batched label-roll plus one batched centroid-gather forecast
      per tick;
    * **seasonal-naive** — the same keys with selection broken (a
      fault-injected executor), so every tick grades through the
      ladder's floor: a fresh ``SeasonalNaive`` fit + forecast per key.

    The acceptance contract from the roadmap: day-profile serving costs
    at most 2x the seasonal-naive rung per tick.
    """
    from repro.engine.executor import SerialExecutor
    from repro.faults.plan import FaultInjector, FaultKind, FaultPlan, FaultRule
    from repro.models import DayProfile
    from repro.stream import ForecastScheduler

    n_keys = 200 if REDUCED else 1000
    seed_hours = 168
    n_ticks = 8
    period = 24

    rng = np.random.default_rng(5)
    t = np.arange(seed_hours)
    base = 55.0 + 9.0 * np.sin(2 * np.pi * t / period) + rng.normal(0, 0.8, seed_hours)
    template = DayProfile(period=period).fit(TimeSeries(base, Frequency.HOURLY))

    def feed(sched) -> list[float]:
        per_tick = []
        for tick in range(n_ticks):
            hour = seed_hours + tick
            batch = [
                ClosedWindow(
                    instance=f"db{k:05d}",
                    metric="cpu",
                    start=hour * 3600.0,
                    value=float(base[hour % seed_hours]),
                    n_samples=4,
                    expected=4,
                )
                for k in range(n_keys)
            ]
            t0 = time.perf_counter()
            out = sched.on_windows(batch)
            per_tick.append(time.perf_counter() - t0)
            assert len(out.advisories) == n_keys
        return per_tick

    # Leg 1: adopted day-profile models served through cohort grading.
    planner = EstatePlanner(config=AutoConfig(technique="hes", n_jobs=1))
    sched = ForecastScheduler(
        planner, thresholds={"cpu": 95.0}, min_observations=seed_hours
    )
    for k in range(n_keys):
        name = f"db{k:05d}"
        series = TimeSeries(base, Frequency.HOURLY, name=f"{name}.cpu")
        sched.seed_history(name, "cpu", series)
        sched.adopt_model(
            name,
            "cpu",
            SelectionOutcome(
                model=dataclasses.replace(template, train=series),
                technique="dayprofile",
                test_rmse=1.0,
                best_spec=None,
                seasonality=None,
                shock_calendar=None,
            ),
        )
    dayprofile_s = min(feed(sched))
    counters = sched.trace.counters
    assert counters.get("stream_selection_runs", 0) == 0  # adopted, never fitted
    assert counters.get("stream_rolls_applied", 0) == n_keys * n_ticks
    assert counters.get("stream_cohorts_dispatched", 0) >= n_ticks

    # Leg 2: selection permanently broken, every key on the ladder floor.
    rule = FaultRule(site="executor.submit", kind=FaultKind.TRANSIENT_ERROR, every=1)
    planner = EstatePlanner(config=AutoConfig(technique="hes", n_jobs=1))
    sched = ForecastScheduler(
        planner,
        thresholds={"cpu": 95.0},
        executor=SerialExecutor(injector=FaultInjector(FaultPlan(rules=(rule,)))),
        min_observations=seed_hours,
    )
    for k in range(n_keys):
        name = f"db{k:05d}"
        sched.seed_history(name, "cpu", TimeSeries(base, Frequency.HOURLY, name=f"{name}.cpu"))
    naive_s = min(feed(sched))
    assert sched.trace.faults.get("degraded_seasonal_naive", 0) == n_keys * n_ticks

    ratio = dayprofile_s / naive_s
    table = Table(
        ["Keys", "day-profile ms/tick", "seasonal-naive ms/tick", "ratio"],
        title="Day-profile serving vs seasonal-naive floor",
    )
    table.add_row(
        [str(n_keys), f"{1e3 * dayprofile_s:.2f}", f"{1e3 * naive_s:.2f}", f"{ratio:.2f}x"]
    )
    print()
    table.print()
    write_bench_json(
        BENCH_JSON,
        "dayprofile_serving",
        {
            "n_keys": n_keys,
            "ticks": n_ticks,
            "ms_per_tick": 1e3 * dayprofile_s,
            "seasonal_naive_ms_per_tick": 1e3 * naive_s,
            "vs_seasonal_naive_ratio": ratio,
            "reduced": REDUCED,
        },
    )
    # Serving the richer model must stay in the floor's cost class.
    assert ratio <= 2.0, (dayprofile_s, naive_s)


def test_shard_scaling():
    """Partitioned serving capacity vs shard count.

    A 10k+-key poll stream is partitioned across N shards by the
    consistent-hash router and replayed end to end (``mangle=False``:
    the stream is pre-ordered once so every N sees byte-identical
    input). Because CI boxes may have a single core, the scaling claim
    is measured in **CPU seconds per shard** (``time.process_time``
    inside each :class:`ShardHandler`), not wall clock: the
    deployment's capacity is bounded by its busiest shard, so

        ingest samples/cpu-s  = accepted_total / max-shard ingest CPU
        windows/cpu-s         = windows_total  / max-shard tick CPU

    and the acceptance contract is that both rates scale with N —
    ≥1.6x at two shards, ≥2.5x at four (ring imbalance and the
    per-shard fixed tick cost eat the rest of the ideal Nx).

    Shards run inline (``processes=False``) — the same ShardHandler
    code path the worker processes execute, minus two measurement
    contaminants a 1-CPU box cannot average away: OS timesharing
    between concurrent workers inflating one shard's cache-miss CPU,
    and cyclic-GC pauses landing in whichever shard's timer happens to
    be open. GC is additionally quiesced around the timed region, and
    each shard count takes the best of two replays.
    """
    import gc

    from repro.shard import ShardedRuntime

    n_keys = 10_000 if REDUCED else 40_000
    slots_per_key = 12  # 3 hours of 15-minute polls
    shard_counts = (1, 2, 4)
    repeats = 2
    config = StreamConfig(batch_polls=8192, seed=11)

    samples = [
        AgentSample(
            instance=f"db{k:05d}",
            metric="cpu",
            timestamp=i * 900.0,
            value=50.0 + (k % 7) + 0.1 * i,
        )
        for i in range(slots_per_key)
        for k in range(n_keys)
    ]

    results = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    try:
        for n_shards in shard_counts:
            best = None
            for _ in range(repeats):
                gc.collect()
                with ShardedRuntime(
                    n_shards, config=config, processes=False, mangle=False
                ) as runtime:
                    runtime.run(samples)
                    runtime.finish()
                    stats = runtime.shard_stats()
                accepted = sum(s["counters"].get("samples_accepted", 0) for s in stats)
                windows = sum(s["counters"].get("windows_closed", 0) for s in stats)
                ingest_cpu = max(s["ingest_cpu_seconds"] for s in stats)
                tick_cpu = max(s["tick_cpu_seconds"] for s in stats)
                assert accepted == len(samples)
                assert windows == n_keys * (slots_per_key // 4)
                if best is None or ingest_cpu + tick_cpu < (
                    best["max_shard_ingest_cpu_s"] + best["max_shard_tick_cpu_s"]
                ):
                    best = {
                        "accepted": accepted,
                        "windows": windows,
                        "max_shard_ingest_cpu_s": ingest_cpu,
                        "max_shard_tick_cpu_s": tick_cpu,
                        "ingest_samples_per_cpu_s": accepted / ingest_cpu,
                        "windows_per_cpu_s": windows / tick_cpu,
                    }
            results[str(n_shards)] = best
    finally:
        gc.unfreeze()
        if gc_was_enabled:
            gc.enable()

    base = results["1"]
    for entry in results.values():
        entry["ingest_speedup"] = (
            entry["ingest_samples_per_cpu_s"] / base["ingest_samples_per_cpu_s"]
        )
        entry["windows_speedup"] = entry["windows_per_cpu_s"] / base["windows_per_cpu_s"]

    table = Table(
        ["Shards", "ingest samples/cpu-s", "windows/cpu-s", "ingest x", "windows x"],
        title=f"Shard scaling, {n_keys} keys x {slots_per_key} polls",
    )
    for n_shards in shard_counts:
        e = results[str(n_shards)]
        table.add_row([
            str(n_shards),
            f"{e['ingest_samples_per_cpu_s']:.0f}",
            f"{e['windows_per_cpu_s']:.0f}",
            f"{e['ingest_speedup']:.2f}x",
            f"{e['windows_speedup']:.2f}x",
        ])
    print()
    table.print()

    write_bench_json(
        BENCH_JSON,
        "shard_scaling",
        {
            "n_keys": n_keys,
            "slots_per_key": slots_per_key,
            "shard_counts": list(shard_counts),
            "reduced": REDUCED,
            "per_shards": results,
            "ingest_speedup_2": results["2"]["ingest_speedup"],
            "windows_speedup_2": results["2"]["windows_speedup"],
            "ingest_speedup_4": results["4"]["ingest_speedup"],
            "windows_speedup_4": results["4"]["windows_speedup"],
        },
    )

    assert results["2"]["ingest_speedup"] >= 1.6, results["2"]
    assert results["2"]["windows_speedup"] >= 1.6, results["2"]
    assert results["4"]["ingest_speedup"] >= 2.5, results["4"]
    assert results["4"]["windows_speedup"] >= 2.5, results["4"]
