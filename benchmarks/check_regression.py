"""Bench-regression gate: compare fresh BENCH JSON against committed baselines.

CI's ``bench-smoke`` job runs the benchmark suites (which write
``benchmarks/output/BENCH_*.json`` in place), then calls this script with
the *committed* copies stashed aside as the baseline::

    python benchmarks/check_regression.py \
        --baseline /tmp/bench-baseline --fresh benchmarks/output

A headline metric regresses when it moves against its direction by more
than ``--max-regression`` (default 25%): lower-is-better metrics fail at
``fresh > baseline * 1.25``, higher-is-better at ``fresh < baseline / 1.25``.
Missing baseline files or metrics are skipped with a note (new benchmarks
must not fail the gate before their first committed baseline); missing
*fresh* files fail, because that means the bench run itself broke.

The gate can be bypassed on a PR with the ``skip-bench-gate`` label (see
``.github/workflows/ci.yml``) — for intentional trade-offs, with the
regression called out in the PR description.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: (file, dotted path into the JSON, direction). Direction is "lower"
#: for wall-clock style metrics and "higher" for throughput metrics.
HEADLINES: tuple[tuple[str, str, str], ...] = (
    ("BENCH_engine.json", "scaling.wall_seconds.1", "lower"),
    ("BENCH_engine.json", "racing.wall_seconds_racing", "lower"),
    ("BENCH_engine.json", "restart_selection.seconds", "lower"),
    ("BENCH_engine.json", "restart_selection.lockstep_speedup", "higher"),
    ("BENCH_stream.json", "ingest.samples_per_second", "higher"),
    ("BENCH_stream.json", "ingest_fastpath.samples_per_s_100k", "higher"),
    ("BENCH_stream.json", "ingest_fastpath.sparse_advance_ms", "lower"),
    ("BENCH_stream.json", "windows.windows_per_second", "higher"),
    ("BENCH_stream.json", "scheduler.ms_per_tick", "lower"),
    ("BENCH_stream.json", "cohort_scaling.ms_per_tick_1000", "lower"),
    ("BENCH_stream.json", "cohort_scaling.dispatch_speedup_1000", "higher"),
    ("BENCH_stream.json", "sarima_serving.ms_per_tick_1000", "lower"),
    ("BENCH_stream.json", "dayprofile_serving.ms_per_tick", "lower"),
    ("BENCH_stream.json", "dayprofile_serving.vs_seasonal_naive_ratio", "lower"),
    ("BENCH_stream.json", "shard_scaling.ingest_speedup_2", "higher"),
    ("BENCH_stream.json", "shard_scaling.windows_speedup_2", "higher"),
    ("BENCH_stream.json", "shard_scaling.ingest_speedup_4", "higher"),
    ("BENCH_stream.json", "shard_scaling.windows_speedup_4", "higher"),
    ("BENCH_stream.json", "window_close.ms_per_tick_1000", "lower"),
    ("BENCH_stream.json", "window_close.speedup_vs_legacy", "higher"),
    ("BENCH_kernels.json", "auto_select_end_to_end.wall_seconds", "lower"),
    ("BENCH_kernels.json", "batched_dispatch.speedup_256", "higher"),
    ("BENCH_kernels.json", "mul_band.ms_per_call", "lower"),
    ("BENCH_kernels.json", "mul_band.speedup_vs_legacy", "higher"),
    ("BENCH_planner.json", "planner_scaling.plans_per_second_100", "higher"),
    ("BENCH_planner.json", "planner_scaling.plans_per_second_1000", "higher"),
)


def lookup(doc: dict, dotted: str):
    """Walk ``a.b.c`` into nested dicts; None when any hop is missing."""
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check(baseline_dir: Path, fresh_dir: Path, max_regression: float) -> int:
    """Print a verdict per headline metric; return the number of failures."""
    failures = 0
    docs: dict[tuple[Path, str], dict | None] = {}

    def load(root: Path, name: str) -> dict | None:
        key = (root, name)
        if key not in docs:
            path = root / name
            docs[key] = json.loads(path.read_text()) if path.is_file() else None
        return docs[key]

    for name, dotted, direction in HEADLINES:
        fresh_doc = load(fresh_dir, name)
        if fresh_doc is None:
            print(f"FAIL  {name}:{dotted} — fresh results missing ({fresh_dir / name})")
            failures += 1
            continue
        fresh = lookup(fresh_doc, dotted)
        if not isinstance(fresh, (int, float)):
            print(f"FAIL  {name}:{dotted} — metric absent from fresh results")
            failures += 1
            continue
        base_doc = load(baseline_dir, name)
        base = lookup(base_doc, dotted) if base_doc is not None else None
        if not isinstance(base, (int, float)) or base <= 0:
            print(f"skip  {name}:{dotted} — no committed baseline (fresh={fresh:.4g})")
            continue
        if direction == "lower":
            limit = base * (1.0 + max_regression)
            bad = fresh > limit
            change = fresh / base - 1.0
        else:
            limit = base / (1.0 + max_regression)
            bad = fresh < limit
            change = base / fresh - 1.0 if fresh > 0 else float("inf")
        verdict = "FAIL " if bad else "ok   "
        print(
            f"{verdict} {name}:{dotted} ({direction} is better) "
            f"baseline={base:.4g} fresh={fresh:.4g} "
            f"regression={change:+.1%} (limit {max_regression:.0%})"
        )
        if bad:
            failures += 1
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", required=True, type=Path, help="directory holding committed BENCH_*.json"
    )
    parser.add_argument(
        "--fresh", required=True, type=Path, help="directory holding freshly produced BENCH_*.json"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional slowdown before failing (default 0.25)",
    )
    args = parser.parse_args(argv)
    failures = check(args.baseline, args.fresh, args.max_regression)
    if failures:
        print(
            f"\n{failures} headline metric(s) regressed beyond "
            f"{args.max_regression:.0%}; apply the 'skip-bench-gate' label "
            "to override for an intentional trade-off."
        )
        return 1
    print("\nbench gate: all headline metrics within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
