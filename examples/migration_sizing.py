#!/usr/bin/env python
"""Cloud-migration sizing: what shape should the target environment be?

The paper's long-term use case: "If I need to migrate to a new platform,
such as a Cloud architecture, what resource capacity do I need?" — and the
introduction's warning about over-provisioning ("for every environment
provisioned, a proportion of that provisioned resource will probably never
be used").

This example sizes a cloud target for the growing OLTP cluster of
Experiment Two. It forecasts each metric a week ahead per instance,
converts the forecasts into procurement-unit recommendations, and compares
the forecast-driven sizing against the naive "current peak × 2" rule of
thumb, quantifying the over-provisioning saved.

Run:  python examples/migration_sizing.py
"""

from repro import AutoConfig
from repro.core import interpolate_missing
from repro.reporting import Table
from repro.selection import auto_select
from repro.service import recommend_capacity
from repro.workloads import generate_oltp_run

HORIZON_HOURS = 7 * 24  # size for the week after migration

# Procurement quanta per metric: whole OCPUs, 1 GB memory, 50k IOPS tiers.
UNITS = {"cpu": 1.0, "memory": 1024.0, "logical_iops": 50_000.0}

run = generate_oltp_run()
table = Table(
    ["Instance", "Metric", "Current peak", "Forecast p95", "Recommended", "Naive 2x peak", "Saved"],
    title="Migration sizing for Experiment Two (one week out)",
)

for instance, bundle in run.instances.items():
    for metric, series in bundle.as_dict().items():
        series = interpolate_missing(series)
        outcome = auto_select(series, config=AutoConfig(n_jobs=0))
        forecast = outcome.forecast(HORIZON_HOURS).clipped(0.0)
        rec = recommend_capacity(forecast, unit=UNITS[metric], headroom=0.10)
        current_peak = float(series.values.max())
        naive = 2.0 * current_peak
        saved = max(0.0, naive - rec.recommended)
        table.add_row(
            [
                instance,
                metric,
                current_peak,
                rec.required,
                rec.recommended,
                naive,
                saved,
            ]
        )
    table.add_separator()

table.print()
print(
    "\n'Saved' is capacity the naive rule would have provisioned but the "
    "forecast shows will not be needed — the over-provisioning the paper's "
    "introduction warns about."
)
