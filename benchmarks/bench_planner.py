"""Provisioning planner throughput and beam behaviour.

The planner's operational promise is that estate-wide re-planning is
cheap enough to run on every trigger, not on a quarterly spreadsheet
cycle: blueprint enumeration is bounded per instance, scoring is a few
vectorised band operations, and the beam visits instances once. This
bench pins numbers on that promise:

* planner scaling — full estate plans per second at 100 and 1 000
  instances (mixed calm/breaching demands plus consolidation groups),
  the headline CI tracks;
* beam-width sweep — wall time and plan quality (total composite) as
  the beam widens, confirming width buys quality sub-linearly while
  cost stays near-linear.

Results are printed as a paper-style table and written machine-readable
to ``benchmarks/output/BENCH_planner.json`` for CI trend tracking. Set
``REPRO_REDUCED_GRID=1`` (the CI smoke mode) for a seconds-scale run.
"""

import os
import time

import numpy as np

from repro.planner import DEFAULT_CATALOG, ForecastBand, InstanceDemand, plan_estate
from repro.reporting import Table

from .conftest import write_bench_json

REDUCED = os.environ.get("REPRO_REDUCED_GRID", "") not in ("", "0")

BENCH_JSON = "BENCH_planner.json"

HORIZON = 24
REPEATS = 3 if REDUCED else 10
SWEEP_INSTANCES = 100 if REDUCED else 200


def _estate(n: int, seed: int = 0) -> list[InstanceDemand]:
    """A seeded synthetic estate: ~1/3 breaching, ~1/4 grouped in racks."""
    rng = np.random.default_rng(seed)
    steps = np.arange(HORIZON, dtype=float)
    demands = []
    for i in range(n):
        base = 8.0 + 18.0 * rng.random()
        if i % 3 == 0:  # breaching: forecast climbs through the threshold
            base = 24.0 + 12.0 * rng.random()
        mean = base + 2.0 * np.sin(steps / 4.0 + i) + 0.1 * steps * (i % 3 == 0)
        group = f"rack{i // 8:03d}" if i % 4 == 0 else None
        demands.append(
            InstanceDemand(
                instance=f"db{i:04d}",
                tier=DEFAULT_CATALOG[0],
                bands={"cpu": ForecastBand(mean=mean, upper=mean + 3.0)},
                capacities={"cpu": 26.0},
                group=group,
            )
        )
    return demands


def _time_plan(demands, beam_width=4, repeats=REPEATS):
    best = float("inf")
    plan = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        plan = plan_estate(demands, beam_width=beam_width, seed=0)
        best = min(best, time.perf_counter() - t0)
    return plan, best


def test_planner_scaling():
    table = Table(
        ["Instances", "Choices", "Seconds/plan", "Plans/s", "Instances/s"],
        title="Estate planning throughput",
    )
    payload = {"reduced": REDUCED, "beam_width": 4, "repeats": REPEATS}
    for n in (100, 1000):
        demands = _estate(n)
        plan, elapsed = _time_plan(demands)
        covered = sum(len(c.blueprint.instances) for c in plan.choices)
        assert covered == n  # every instance planned exactly once
        plans_per_second = 1.0 / elapsed
        table.add_row(
            [
                str(n),
                str(len(plan.choices)),
                f"{elapsed:.3f}",
                f"{plans_per_second:,.1f}",
                f"{n / elapsed:,.0f}",
            ]
        )
        payload[f"plans_per_second_{n}"] = plans_per_second
        payload[f"instances_per_second_{n}"] = n / elapsed
        payload[f"wall_seconds_{n}"] = elapsed
    print()
    table.print()
    write_bench_json(BENCH_JSON, "planner_scaling", payload)
    # Re-planning an estate must stay interactive, even on CI boxes.
    assert payload["plans_per_second_100"] > 1.0


def test_beam_width_sweep():
    demands = _estate(SWEEP_INSTANCES, seed=1)
    table = Table(
        ["Beam width", "Seconds/plan", "Total composite", "P(breach)"],
        title=f"Beam-width sweep ({SWEEP_INSTANCES} instances)",
    )
    payload = {"reduced": REDUCED, "instances": SWEEP_INSTANCES}
    composites = {}
    for width in (1, 2, 4, 8):
        plan, elapsed = _time_plan(demands, beam_width=width)
        composites[width] = plan.total_composite
        table.add_row(
            [
                str(width),
                f"{elapsed:.3f}",
                f"{plan.total_composite:.2f}",
                f"{plan.breach_probability:.1%}",
            ]
        )
        payload[f"wall_seconds_{width}"] = elapsed
        payload[f"total_composite_{width}"] = plan.total_composite
    print()
    table.print()
    write_bench_json(BENCH_JSON, "beam_width", payload)
    # Widening the beam never worsens the plan (it strictly explores more).
    assert composites[8] <= composites[1] + 1e-9
