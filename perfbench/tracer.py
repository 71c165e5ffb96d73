"""Per-layer spans of the serving loop, recorded from outside the program.

:class:`Tracer` wraps the public entry point that the runtime calls in
each layer's module: class methods on their class, and module functions
at the names :mod:`repro.stream.scheduler` binds. Every call becomes a
span ``[layer, start, end, parent, items, failed]`` kept in memory; self
times and per-layer sums are computed once the run has ended.

The model-method wrappers (``Fitted*.advance`` / ``Fitted*.forecast``)
record only when called straight from the scheduler. The same methods
run inside selection (scoring candidates) and plan escalation (scoring
blueprints); there they are part of that layer's own work.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

LAYERS = (
    "ingest",
    "aggregate",
    "roll",
    "grade",
    "select",
    "persist",
    "alerts",
    "plan",
    "scheduler",
    "runtime",
)

_NAME, _START, _END, _PARENT, _ITEMS, _FAILED = range(6)


class Tracer:
    """Install span wrappers, collect spans, report per-layer sums.

    ``phase`` names the part of the run in progress (``"setup"``,
    ``"timed"``); the item callbacks' extra tallies are kept per phase.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.phase = "setup"
        self.tallies: dict[str, dict[str, float]] = {}

    def tally(self, key: str, value: float) -> None:
        bucket = self.tallies.setdefault(self.phase, {})
        bucket[key] = bucket.get(key, 0) + value

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, layer: str, items=None, under: tuple[str, ...] | None = None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``items(args, out, tally)`` returns the call's work units (one
        per call when omitted). ``under`` restricts recording to calls
        whose innermost open span belongs to one of those layers. A
        missing attribute raises :class:`LookupError`: a layer that
        silently records nothing would read as a 100 % gain.
        """
        if isinstance(owner, type):
            original = vars(owner).get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            raise LookupError(f"entry point not found: {getattr(owner, '__name__', owner)}.{attr}")
        spans, stack, clock, tally = self.spans, self._stack, time.perf_counter, self.tally

        def traced(*args, **kwargs):
            if under is not None and (not stack or spans[stack[-1]][_NAME] not in under):
                return original(*args, **kwargs)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, 1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = original(*args, **kwargs)
            except BaseException:
                span[_FAILED] = 1
                raise
            finally:
                span[_END] = clock()
                stack.pop()
            if items is not None:
                span[_ITEMS] = items(args, out, tally)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self) -> "Tracer":
        """Wrap every entry point of :data:`ENTRY_POINTS` and :data:`MODEL_METHODS`."""
        points = [(*point, None) for point in ENTRY_POINTS]
        points += [(*point, ("scheduler",)) for point in MODEL_METHODS]
        try:
            for module_name, class_name, attr, layer, items, under in points:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name, None)
                    if owner is None:
                        raise LookupError(f"entry point not found: {module_name}.{class_name}")
                self.wrap(owner, attr, layer, items=items, under=under)
        except LookupError:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Index of the next span, to delimit a phase for :meth:`layer_totals`."""
        return len(self.spans)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [span[_END] - span[_START] for span in self.spans]
        for span in self.spans:
            if span[_PARENT] >= 0:
                own[span[_PARENT]] -= span[_END] - span[_START]
        return own

    def layer_totals(self, lo: int, hi: int, own: list[float]) -> dict[str, dict]:
        """Calls, items, self seconds and failures per layer over spans ``[lo, hi)``."""
        totals = {layer: dict(calls=0, items=0, seconds=0.0, failed=0) for layer in LAYERS}
        for span, seconds in zip(self.spans[lo:hi], own[lo:hi]):
            entry = totals[span[_NAME]]
            entry["calls"] += 1
            entry["items"] += span[_ITEMS]
            entry["seconds"] += seconds
            entry["failed"] += span[_FAILED]
        return totals

    def dump(self, path: Path) -> None:
        """Write the spans out, one JSON list per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


# ---------------------------------------------------------------------------
# Item callbacks: the work units of each entry point, plus ratio tallies.
# ---------------------------------------------------------------------------
def _chunk_length(args, out, tally) -> int:
    return len(args[1])


def _length(args, out, tally) -> int:
    return len(out)


def _rows(args, out, tally) -> int:
    return int(out)


def _ingest_items(args, out, tally) -> int:
    tally("ingest_accepted", int(out))
    return len(args[1])


def _cohort_roll_items(args, out, tally) -> int:
    tally("roll_cohort_rows", len(args[0]))
    return len(args[0])


def _scalar_roll_items(args, out, tally) -> int:
    tally("roll_scalar_rows", 1)
    return 1


def _cohort_forecast_items(args, out, tally) -> int:
    tally("grade_cohort_rows", len(args[0]))
    return 0  # a row counts once, when predict_breach_arrays grades it


def _scalar_forecast_items(args, out, tally) -> int:
    tally("grade_scalar_rows", 1)
    return 0  # counted when predict_breach grades it


def selected_workloads(report) -> tuple[list, int]:
    """The entries an estate report selected afresh, and how many ended FAILED.

    Cache hits are not selections; the report's trace names every
    workload it actually ran as a ``workload`` stage.
    """
    ran = {event.detail for event in report.trace.events if event.name == "workload"}
    entries = [entry for entry in report.entries if str(entry.key) in ran]
    return entries, sum(1 for entry in entries if entry.status.name == "FAILED")


def _select_items(args, out, tally) -> int:
    entries, failed = selected_workloads(out)
    for counter in ("selection_cache_hits", "selection_cache_misses", "candidates_fitted"):
        tally(counter, out.trace.counters.get(counter, 0))
    tally("selection_failed", failed)
    for entry in entries:
        if entry.trace is not None:
            for stage, seconds in entry.trace.stage_seconds().items():
                tally(f"stage.{stage}", seconds)
    return len(entries)


_SCHEDULER = "repro.stream.scheduler"

#: ``(module, class or "" for a module attribute, attribute, layer, items)``.
#: Module functions are wrapped where :mod:`repro.stream.scheduler` binds them.
ENTRY_POINTS = (
    ("repro.stream.runtime", "StreamRuntime", "ingest_batch", "runtime", _chunk_length),
    ("repro.stream.ingest", "IngestBus", "push_chunk", "ingest", _ingest_items),
    ("repro.stream.aggregate", "WindowAggregator", "advance", "aggregate", _length),
    (_SCHEDULER, "ForecastScheduler", "on_windows", "scheduler", _chunk_length),
    ("repro.agent.repository", "MetricsRepository", "store_windows", "persist", _rows),
    ("repro.agent.repository", "MetricsRepository", "store_models", "persist", _rows),
    ("repro.agent.repository", "MetricsRepository", "load_series", "persist", _length),
    ("repro.service.estate", "EstatePlanner", "report", "select", _select_items),
    ("repro.stream.alerts", "AlertManager", "observe", "alerts", None),
    ("repro.planner.escalation", "PlanEscalator", "on_tick", "plan", _length),
    (_SCHEDULER, "", "advance_cohort", "roll", _cohort_roll_items),
    (_SCHEDULER, "", "dayprofile_advance_cohort", "roll", _cohort_roll_items),
    (_SCHEDULER, "", "forecast_cohort_arrays", "grade", _cohort_forecast_items),
    (_SCHEDULER, "", "dayprofile_forecast_cohort_arrays", "grade", _cohort_forecast_items),
    (_SCHEDULER, "", "predict_breach_arrays", "grade", None),
    (_SCHEDULER, "", "predict_breach", "grade", None),
)

#: Model methods, wrapped where a class defines (not inherits) them and
#: traced only when the scheduler calls them directly. Only the families
#: some workload serves are listed: HES, DayProfile and SARIMA.
MODEL_METHODS = (
    ("repro.models.ets", "FittedExpSmoothing", "advance", "roll", _scalar_roll_items),
    ("repro.models.dayprofile", "FittedDayProfile", "advance", "roll", _scalar_roll_items),
    ("repro.models.arima", "FittedArima", "advance", "roll", _scalar_roll_items),
    ("repro.models.ets", "FittedExpSmoothing", "forecast", "grade", _scalar_forecast_items),
    ("repro.models.dayprofile", "FittedDayProfile", "forecast", "grade", _scalar_forecast_items),
    ("repro.models.arima", "FittedArima", "forecast", "grade", _scalar_forecast_items),
)
