"""One measured run of one workload, in the current (fresh) process.

Run as ``python3 -m perfbench.phase --workload serve --seed 1 --seconds 30``
from the repository root with ``src`` on ``PYTHONPATH``; ``run.py`` does
that for you, with the thread pools pinned. Prints one JSON object: the
raw measurements, the check failures, the output digest and, with
``--traced 1``, the per-layer metrics of the traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from repro.models import kernels

from .tracer import LAYERS, Tracer, selected_workloads
from .workloads import WORKLOADS

OUT = Path(__file__).resolve().parent / "out"
PINNING = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: The selection pipeline's stages (``engine.pipeline.PIPELINE_STAGES``), one
#: ``select.stage.<name>_ms`` metric each; fixed here so the metric set is too.
STAGES = (
    "repair", "split", "characterise", "enumerate", "score", "augment", "branch-choose", "refit"
)
#: Bus counters that mean a poll was refused (a failed operation).
REFUSED = ("samples_late_dropped", "samples_rejected_backpressure", "samples_nonfinite")


def fingerprint() -> dict:
    """The machine and software the numbers were measured on."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": kernels.active_backend(),
        "threads": {name: os.environ.get(name, "unset") for name in PINNING},
    }


class Digest:
    """SHA-256 over advisories, alert events and plan proposals, in order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._events = 0
        self._proposals = 0

    def update(self, runtime, tick) -> None:
        feed = self._hash.update
        for key, advisory in tick.advisories.items():
            feed(repr((str(key), advisory)).encode())
        for event in runtime.events[self._events :]:
            feed(repr(event).encode())
        for proposal in runtime.proposals[self._proposals :]:
            feed(repr(proposal).encode())
        self._events = len(runtime.events)
        self._proposals = len(runtime.proposals)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _kernel_totals() -> dict[str, float]:
    snap = kernels.stats_snapshot()
    calls = [k for k in snap if k.endswith("_calls") and k != "kernel_calls_before_warm"]
    return {
        "calls": sum(snap[k] for k in calls),
        "us": sum(v for k, v in snap.items() if k.endswith("_us")),
        "rows": sum(v for k, v in snap.items() if k.endswith("_rows")),
    }


def run_phase(
    workload: str,
    seed: int,
    seconds: float,
    size: str = "full",
    traced: bool = False,
    single: bool = False,
    spans_to: Path | None = None,
) -> dict:
    """Generate inputs, then make the workload's passes: set-ups, timed ticks, checks.

    A traced run, and a ``single`` one, makes one pass with one set-up
    (the tracer's phases assume one of each). Returns the raw
    measurements: set-up seconds, per-pass tick seconds, polls per tick,
    operations attempted and failed, check failures, the output digest
    and (when ``traced``) the per-layer metrics.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    tracer = Tracer().install() if traced else None
    try:
        wl = WORKLOADS[workload](seed, size, workdir)
        if traced or single:
            wl.passes = wl.setups = 1
        return _run(wl, seconds, tracer, spans_to)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def _set_up(wl, tracer):
    """``wl.setups`` set-ups, keeping the last; returns it, their seconds and its span range."""
    if tracer:
        tracer.phase = "setup"
    seconds = []
    dep = None
    for __ in range(wl.setups):
        if dep is not None:
            dep.close()
            dep = None
        wl.prepare()
        warmup = wl.delivery(0)
        gc.collect()
        first = tracer.mark() if tracer else 0
        started = time.perf_counter()
        dep = wl.setup(warmup)
        seconds.append(time.perf_counter() - started)
    return dep, seconds, (first, tracer.mark() if tracer else 0)


def _stream(wl, dep, tracer) -> dict:
    """One pass's timed ticks over ``wl.hours`` hours, with its checks and counters."""
    runtime = dep.runtime
    before = runtime.telemetry().counters
    kernels_before = _kernel_totals()
    digest = Digest()
    failures: list[str] = []
    ticks: list[float] = []
    polls: list[int] = []
    selections = failed_selections = 0
    if tracer:
        tracer.phase = "timed"
    gc.collect()
    timed_from = tracer.mark() if tracer else 0
    for hour in range(1, wl.hours + 1):
        chunk = wl.delivery(hour)
        started = time.perf_counter()
        tick = runtime.ingest_batch(chunk)
        ticks.append(time.perf_counter() - started)
        polls.append(len(chunk))
        digest.update(runtime, tick)
        if tick.report is not None:
            selected, failed = selected_workloads(tick.report)
            selections += len(selected)
            failed_selections += failed
        failures += wl.observe(dep, tick)
    timed_spans = (timed_from, tracer.mark() if tracer else 0)
    after = runtime.telemetry().counters
    kernels_after = _kernel_totals()
    failures += wl.check(dep)
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in set(after) | set(before)}
    return {
        "ticks": ticks,
        "polls": polls,
        "attempted": sum(polls) + selections,
        "failed": sum(delta.get(k, 0) for k in REFUSED) + failed_selections,
        "failures": failures,
        "digest": digest.hexdigest(),
        "delta": delta,
        "kernel_delta": {k: kernels_after[k] - kernels_before[k] for k in kernels_after},
        "timed_spans": timed_spans,
    }


def _run(wl, seconds, tracer, spans_to) -> dict:
    """Passes until the next one would end after ``seconds``; at least two
    (one for a traced or ``single`` run).

    Short passes, each starting with its own set-ups, spread the set-ups
    and the timed ticks evenly over the run, so every figure is taken
    across the same stretch of the machine's slow and fast phases.
    """
    failures: list[str] = []
    setup_seconds: list[float] = []
    passes: list[dict] = []
    started = time.perf_counter()
    while len(passes) < wl.passes:
        done = len(passes)
        elapsed = time.perf_counter() - started
        if done >= 2 and elapsed * (done + 1) / done > seconds:
            break
        dep, spent, setup_spans = _set_up(wl, tracer)
        setup_seconds += spent
        failures += wl.after_setup(dep)
        passes.append(_stream(wl, dep, tracer))
        failures += passes[-1]["failures"]
        dep.close()
    if len({done["digest"] for done in passes}) > 1:
        failures.append(f"{wl.name}: passes over the same inputs produced different outputs")

    last = passes[-1]
    result = {
        "workload": wl.name,
        "seed": wl.seed,
        "setup_seconds": setup_seconds,
        "tick_seconds": [done["ticks"] for done in passes],
        "tick_polls": last["polls"],
        "hours": wl.hours,
        "attempted": sum(done["attempted"] for done in passes),
        "failed": sum(done["failed"] for done in passes),
        "failures": failures,
        "digest": last["digest"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": fingerprint(),
    }
    if tracer is not None:  # one pass, one set-up
        result["layers"] = _layer_report(
            tracer, setup_spans, last["timed_spans"], last["ticks"], last["delta"],
            last["kernel_delta"],
        )
        if spans_to is not None:
            tracer.dump(spans_to)
    return result


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def _layer_report(tracer, setup, timed, tick_seconds, delta, kernel_delta) -> dict:
    """Every per-layer metric of the traced run, as ``name -> (value, unit)``."""
    own = tracer.self_times()
    totals = tracer.layer_totals(*timed, own)
    setup_totals = tracer.layer_totals(*setup, own)
    tallies = tracer.tallies.get("timed", {})
    ticks = len(tick_seconds)
    wall = sum(tick_seconds)
    totals["ingest"]["failed"] = sum(delta.get(k, 0) for k in REFUSED)
    totals["select"]["failed"] = tallies.get("selection_failed", 0)
    out = {}
    for layer in LAYERS:
        entry = totals[layer]
        out[f"{layer}.calls"] = (entry["calls"], "count")
        out[f"{layer}.items"] = (entry["items"], "count")
        out[f"{layer}.ms_per_tick"] = (1e3 * entry["seconds"] / ticks, "ms")
        out[f"{layer}.share"] = (_ratio(entry["seconds"], wall), "ratio")
        out[f"{layer}.failed"] = (entry["failed"], "count")
    uncovered = wall - sum(entry["seconds"] for entry in totals.values())
    out["trace.ticks"] = (ticks, "count")
    out["trace.uncovered_ms_per_tick"] = (1e3 * uncovered / ticks, "ms")
    out["trace.uncovered_share"] = (_ratio(uncovered, wall), "ratio")

    accepted = tallies.get("ingest_accepted", 0)
    out["ingest.accepted_ratio"] = (_ratio(accepted, totals["ingest"]["items"]), "ratio")
    memo = delta.get("stream_advisory_cache_hits", 0)
    out["grade.memo_hit_ratio"] = (_ratio(memo, delta.get("stream_advisories_graded", 0)), "ratio")
    for layer in ("grade", "roll"):
        cohort = tallies.get(f"{layer}_cohort_rows", 0)
        scalar = tallies.get(f"{layer}_scalar_rows", 0)
        out[f"{layer}.cohort_ratio"] = (_ratio(cohort, cohort + scalar), "ratio")
    hits = tallies.get("selection_cache_hits", 0)
    misses = tallies.get("selection_cache_misses", 0)
    out["select.cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    selected = totals["select"]["items"]
    out["select.ms_per_workload"] = (_ratio(1e3 * totals["select"]["seconds"], selected), "ms")
    out["select.candidates_fitted"] = (tallies.get("candidates_fitted", 0), "count")
    for stage in STAGES:
        stage_ms = 1e3 * tallies.get(f"stage.{stage}", 0.0)
        out[f"select.stage.{stage}_ms"] = (_ratio(stage_ms, selected), "ms")
    out["setup.select_ms"] = (1e3 * setup_totals["select"]["seconds"], "ms")
    out["setup.persist_ms"] = (1e3 * setup_totals["persist"]["seconds"], "ms")
    out["kernels.calls"] = (kernel_delta["calls"], "count")
    out["kernels.ms"] = (kernel_delta["us"] / 1e3 / ticks, "ms")
    out["kernels.batch_rows"] = (kernel_delta["rows"], "count")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--traced", type=int, default=0, choices=(0, 1))
    parser.add_argument("--single", type=int, default=0, choices=(0, 1), help="one pass and set-up")
    args = parser.parse_args(argv)
    spans = OUT / "spans" / f"{args.workload}-{args.seed}.jsonl" if args.traced else None
    result = run_phase(
        args.workload, args.seed, args.seconds, args.size, bool(args.traced), bool(args.single),
        spans,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
