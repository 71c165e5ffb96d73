"""Run one workload of the serving-loop benchmark and print its metrics.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

Run from the repository root. Each measured phase runs in a fresh child
process (``perfbench/phase.py``) with the BLAS/OpenMP pools pinned to one
thread before numpy loads. ``--trace 0`` prints the end-to-end metrics
over the workload's passes; ``--trace 1`` runs one pass of the workload
twice with the same seed, untraced and traced, and prints the per-layer
metrics plus the tracing overhead. The last line of standard output is
one JSON object::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

A failed output check prints ``"correct": false`` and exits with 1; a
run that cannot measure at all (no ``src/`` to import, a crashed or
timed-out child, an entry point the tracer cannot find) prints no result
and exits with 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("serve", "churn")
#: End-to-end metrics and their units (see README.md for definitions).
UNITS = {
    "setup_s": "s",
    "polls_per_s": "polls/s",
    "tick_ms_p50": "ms",
    "tick_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
#: Whole-run budget in seconds; each child gets what is left of it.
BUDGET_SECONDS = 170.0


class BenchError(Exception):
    """The run could not measure; no result is printed."""


def run_child(args: argparse.Namespace, traced: bool, deadline: float) -> dict:
    """One measured phase in a fresh process."""
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    cmd = [
        sys.executable, "-m", "perfbench.phase",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--size", args.size, "--traced", str(int(traced)), "--single", str(int(args.trace)),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for the next phase")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args.workload} phase timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} phase exited with {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{args.workload} phase printed no result")
    return json.loads(lines[-1])


def pooled_ticks(result: dict) -> list[float]:
    """Every timed tick of every pass, in seconds.

    The passes replay the same ticks from the same state at different
    times of the run, so pooling them averages over the machine's slow
    and fast phases.
    """
    return [seconds for replay in result["tick_seconds"] for seconds in replay]


def polls_per_s(result: dict) -> float:
    polls = sum(result["tick_polls"]) * len(result["tick_seconds"])
    return polls / sum(pooled_ticks(result))


def end_to_end(result: dict) -> dict[str, tuple[float, int]]:
    """The five end-to-end metrics, as ``name -> (value, sample count)``."""
    ticks_ms = [1e3 * s for s in pooled_ticks(result)]
    cuts = statistics.quantiles(ticks_ms, n=10, method="inclusive")
    n = len(ticks_ms)
    return {
        "setup_s": (statistics.median(result["setup_seconds"]), len(result["setup_seconds"])),
        "polls_per_s": (polls_per_s(result), n),
        "tick_ms_p50": (cuts[4], n),
        "tick_ms_p90": (cuts[8], n),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }


def tree_digest() -> str:
    """Content hash of the program and the benchmark: one commit, one key."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digest(workload: str, seed: int, size: str, digest: str) -> list[str]:
    """Compare with the digest an earlier run of this tree and seed recorded."""
    record = BENCH / "out" / "digests" / tree_digest() / f"{workload}-{seed}-{size}.txt"
    if record.exists():
        recorded = record.read_text().strip()
        if recorded != digest:
            return [f"output digest {digest[:12]} differs from an earlier run's {recorded[:12]}"]
        return []
    record.parent.mkdir(parents=True, exist_ok=True)
    tmp = record.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(digest + "\n")
    os.replace(tmp, record)
    return []


def combine(untraced: dict, traced: dict | None) -> tuple[list[str], dict]:
    """Check failures and the metrics to print, as ``name -> (value, unit, n)``.

    Without ``traced`` the metrics are the end-to-end ones. With it they
    are the traced run's per-layer metrics plus ``trace.overhead``, and
    both runs of the seed must have produced the same output digest.
    """
    failures = list(untraced["failures"])
    if traced is None:
        metrics = {name: (v, UNITS[name], n) for name, (v, n) in end_to_end(untraced).items()}
        return failures, metrics
    failures += traced["failures"]
    if traced["digest"] != untraced["digest"]:
        failures.append("traced and untraced runs of one seed produced different outputs")
    n = len(traced["tick_polls"])
    metrics = {name: (value, unit, n) for name, (value, unit) in traced["layers"].items()}
    overhead = 1.0 - polls_per_s(traced) / polls_per_s(untraced)
    metrics["trace.overhead"] = (overhead, "ratio", n)
    return failures, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Serving-loop benchmark: one workload, one seed.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    # Small inputs for the benchmark's own self-tests; numbers are meaningless.
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)

    deadline = time.monotonic() + BUDGET_SECONDS
    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        if args.trace:
            # Both runs of the seed make one pass, so their rates compare.
            untraced = run_child(args, False, deadline)
            traced = run_child(args, True, deadline)
        else:
            untraced = run_child(args, False, deadline)
            traced = None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures, metrics = combine(untraced, traced)
    failures += check_digest(args.workload, args.seed, args.size, untraced["digest"])
    base = traced or untraced

    print(
        f"workload {args.workload}, seed {args.seed}: {len(base['tick_seconds'])} pass(es) of "
        f"{len(base['tick_polls'])} timed ticks over {base['hours']} simulated hours, "
        "closed loop (one delivery in flight)"
    )
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:8s} n={n}")
    print(f"  operations attempted {base['attempted']}, failed {base['failed']}")
    print(f"fingerprint: {json.dumps(base['fingerprint'], sort_keys=True)}")
    for failure in failures:
        print(f"check failed: {failure}")
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": int(base["attempted"]),
        "failed": int(base["failed"]),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, __) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
