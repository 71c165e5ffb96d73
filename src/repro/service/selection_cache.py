"""Estate-level selection cache: the paper's reuse-for-one-week rule.

Section 7 of the paper stores each winning model "for a period of one
week or until the model's RMSE drops to a point where it is rendered
useless" — model selection is the expensive step (hundreds of grid fits
per series), so an unchanged series must not pay it twice. This module
gives :class:`~repro.service.estate.EstatePlanner` that store:

* selections are keyed by ``(workload key, series fingerprint, config
  fingerprint)`` — re-registering the *same* data under the *same*
  selection knobs is a cache hit and costs zero grid fits;
* the cache holds no staleness rules of its own: whoever serves the
  model decides when it is stale and calls :meth:`SelectionCache.invalidate`
  (the streaming scheduler does so on a CUSUM drift trip, weekly expiry
  or data growth), forcing a fresh selection on the next report;
* hit / miss / invalidation counts are kept on the cache and folded into
  the estate's :class:`~repro.engine.telemetry.RunTrace`.

The fingerprints are content hashes, not identities: a series that grew
by one sample or a config that changed one knob misses cleanly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.timeseries import TimeSeries
from ..selection.auto import AutoConfig, SelectionOutcome

__all__ = [
    "SelectionCache",
    "CachedSelection",
    "series_fingerprint",
    "config_fingerprint",
]


def series_fingerprint(series: TimeSeries) -> str:
    """Content hash of a series: values, frequency, origin and name."""
    h = hashlib.sha1()
    h.update(np.ascontiguousarray(series.values).tobytes())
    h.update(repr((series.frequency.name, series.start, series.name)).encode())
    return h.hexdigest()


def config_fingerprint(config: AutoConfig) -> str:
    """Content hash of the selection knobs that shape the outcome.

    ``n_jobs`` is normalised out: it decides *where* candidates fit, not
    *which* model wins, and the estate planner rewrites it when fanning
    out — the same selection run serially or pooled must hit.
    """
    normalised = replace(config, n_jobs=1)
    return hashlib.sha1(repr(normalised).encode()).hexdigest()


@dataclass
class CachedSelection:
    """One stored selection outcome and the fingerprint it was stored under."""

    fingerprint: str
    outcome: SelectionOutcome


@dataclass
class SelectionCache:
    """Fingerprint-keyed store of selection outcomes.

    Attributes
    ----------
    hits / misses / invalidations:
        Cumulative counters; the estate planner folds per-report deltas
        into its :class:`~repro.engine.telemetry.RunTrace`.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    _records: dict[object, CachedSelection] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    @staticmethod
    def _fingerprint(series: TimeSeries, config: AutoConfig) -> str:
        return f"{series_fingerprint(series)}:{config_fingerprint(config)}"

    def get(
        self, key, series: TimeSeries, config: AutoConfig
    ) -> SelectionOutcome | None:
        """The cached outcome for ``key``, or ``None`` on miss.

        A hit requires the stored fingerprint to match the offered
        ``(series, config)``; a record invalidated as stale is gone, so
        the caller re-selects.
        """
        record = self._records.get(key)
        if record is None or record.fingerprint != self._fingerprint(series, config):
            self.misses += 1
            return None
        self.hits += 1
        return record.outcome

    def put(self, key, series: TimeSeries, config: AutoConfig, outcome: SelectionOutcome) -> None:
        """Store a fresh selection under its fingerprint."""
        self._records[key] = CachedSelection(
            fingerprint=self._fingerprint(series, config), outcome=outcome
        )

    def invalidate(self, key) -> bool:
        """Drop ``key``'s record (if any); True when something was evicted."""
        if self._records.pop(key, None) is not None:
            self.invalidations += 1
            return True
        return False

    def clear(self) -> None:
        self._records.clear()
