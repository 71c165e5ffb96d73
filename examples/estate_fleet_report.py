#!/usr/bin/env python
"""Estate-scale planning: one report over a mixed fleet of workloads.

Section 8: "The approach is being applied across several thousand
customers, covering 1000's of workloads involving different components in
the technological stack." This example builds a miniature estate — the
OLTP cluster of Experiment Two plus three scenario workloads, one of
which is mid-incident — runs the fleet planner, and prints:

* the urgency-ranked advisory report (next outage first);
* the in-fault exclusion (the paper: forecasting a crashing system "will
  not be a true reflection of the system when stable");
* a Figure 8-style dashboard panel for the most urgent workload.

Run:  python examples/estate_fleet_report.py
"""

import numpy as np

from repro import AutoConfig
from repro.core import Frequency, TimeSeries, interpolate_missing
from repro.reporting import render_panel
from repro.selection import auto_select
from repro.service import EstatePlanner
from repro.workloads import generate_oltp_run, web_transactions, weekly_business_app

# --- assemble the estate ----------------------------------------------------
planner = EstatePlanner(config=AutoConfig(n_jobs=0))

oltp = generate_oltp_run()
planner.register_cluster_run(
    "meridian-bank",
    "core-oltp",
    oltp,
    thresholds={"cpu": 60.0, "logical_iops": 1_200_000.0, "memory": 12_288.0},
)

planner.register(
    "northwind", "webshop", "tx_per_sec", web_transactions(days=45), threshold=2600.0
)
planner.register(
    "northwind", "erp", "cpu", weekly_business_app(days=45), threshold=95.0
)

# A system mid-incident: repeated crashes.
rng = np.random.default_rng(17)
t = np.arange(1100)
crashing = 55 + 18 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1.5, 1100)
for start in (120, 300, 480, 700, 900):
    crashing[start : start + 3] = 2.0
planner.register(
    "initech", "legacy-crm", "cpu", TimeSeries(crashing, Frequency.HOURLY), threshold=85.0
)

# --- run and report ----------------------------------------------------------
report = planner.run()
for line in report.summary_lines():
    print(line)

# --- drill into the most urgent advisory -------------------------------------
urgent = report.ranked_advisories()[0]
print(f"\nmost urgent: {urgent.key}")
series = interpolate_missing(urgent.series)
outcome = auto_select(series, config=AutoConfig(n_jobs=0))
horizon = series.frequency.split_rule.horizon
forecast = outcome.forecast(horizon).clipped(0.0)
print(
    render_panel(
        title=str(urgent.key),
        history=series.tail(7 * 24),
        forecast=forecast,
        shocks=outcome.shock_calendar.describe() if outcome.shock_calendar else [],
        threshold=urgent.threshold,
    )
)
