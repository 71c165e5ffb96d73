"""Streaming ingestion and live forecast serving.

The batch pipeline answers "what will this stored series do next?"; this
package keeps that answer *current* while samples keep arriving:

* :mod:`~repro.stream.clock` — injectable time (tests never sleep);
* :mod:`~repro.stream.keys` — the interned key table: ``(instance,
  metric)`` ↔ dense int id, shared by bus, aggregator and scheduler;
* :mod:`~repro.stream.ingest` — the sample bus: dedup, watermarks,
  bounded buffering with backpressure accounting, and the columnar
  ``push_columns`` intake with dirty-key tracking;
* :mod:`~repro.stream.aggregate` — incremental hourly windows that
  finalise as watermarks advance, bit-equal to the batch repository's
  ``load_series``;
* :mod:`~repro.stream.scheduler` — cohort-batched model upkeep: roll
  stored states forward on closed windows, grade same-spec keys in one
  batched kernel call, re-select through the engine executor and the
  estate selection cache only on real staleness;
* :mod:`~repro.stream.drift` — the CUSUM drift check on roll
  innovations that decides when re-selection is worth paying for;
* :mod:`~repro.stream.alerts` — debounced breach alerting with severity
  escalation and recovery;
* :mod:`~repro.stream.runtime` — the wired loop over simulated agent
  traffic, with merged telemetry for the ``repro stream`` CLI.
"""

from .aggregate import ClosedWindow, WindowAggregator
from .alerts import (
    AlertEvent,
    AlertKind,
    AlertManager,
    AlertSink,
    ConsoleSink,
    ListSink,
)
from .clock import Clock, ManualClock, SystemClock
from .drift import CusumDetector
from .ingest import IngestBus, KeyBuffer, StreamKey
from .keys import KeyTable
from .runtime import StreamConfig, StreamRuntime
from .scheduler import ForecastScheduler, RefitEvent, SchedulerTick

__all__ = [
    "AlertEvent",
    "AlertKind",
    "AlertManager",
    "AlertSink",
    "Clock",
    "ClosedWindow",
    "ConsoleSink",
    "CusumDetector",
    "ForecastScheduler",
    "IngestBus",
    "KeyBuffer",
    "KeyTable",
    "ListSink",
    "ManualClock",
    "RefitEvent",
    "SchedulerTick",
    "StreamConfig",
    "StreamKey",
    "StreamRuntime",
    "SystemClock",
    "WindowAggregator",
]
