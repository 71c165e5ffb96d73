"""Tests for the estate selection cache (reuse-for-one-week rule)."""

import numpy as np
import pytest

from repro.core import Frequency, TimeSeries
from repro.selection import AutoConfig
from repro.service import EstatePlanner, SelectionCache, WorkloadStatus
from repro.service.selection_cache import config_fingerprint, series_fingerprint


def _series(n=300, seed=3, trend=0.0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    y = 40.0 + trend * t + 6.0 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1.0, n)
    return TimeSeries(y, Frequency.HOURLY, name="cpu")


@pytest.fixture()
def planner():
    return EstatePlanner(config=AutoConfig(technique="sarimax", max_lag=4))


@pytest.fixture()
def grid_call_counter(monkeypatch):
    """Count evaluate_grid calls made by the pipeline's score stages."""
    from repro.engine import pipeline
    from repro.selection.grid import evaluate_grid

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return evaluate_grid(*args, **kwargs)

    monkeypatch.setattr(pipeline, "evaluate_grid", counting)
    return calls


class TestFingerprints:
    def test_series_fingerprint_content_sensitive(self):
        a = _series(seed=3)
        same = _series(seed=3)
        different = _series(seed=4)
        assert series_fingerprint(a) == series_fingerprint(same)
        assert series_fingerprint(a) != series_fingerprint(different)
        grown = TimeSeries(np.append(a.values, 99.0), Frequency.HOURLY, name="cpu")
        assert series_fingerprint(a) != series_fingerprint(grown)

    def test_config_fingerprint_ignores_n_jobs(self):
        base = AutoConfig(technique="sarimax")
        assert config_fingerprint(base) == config_fingerprint(
            AutoConfig(technique="sarimax", n_jobs=4)
        )
        assert config_fingerprint(base) != config_fingerprint(
            AutoConfig(technique="sarimax", max_lag=5)
        )


class TestCacheHits:
    def test_second_report_zero_grid_fits(self, planner, grid_call_counter):
        series = _series()
        key = planner.register("acme", "db1", "cpu", series, threshold=60.0)
        r1 = planner.report()
        fits_first = len(grid_call_counter)
        assert fits_first > 0
        assert r1.trace.counters["selection_cache_misses"] == 1

        planner.register("acme", "db1", "cpu", series, threshold=60.0)  # unchanged
        r2 = planner.report()
        assert len(grid_call_counter) == fits_first  # zero new grid fits
        assert r2.trace.counters["selection_cache_hits"] == 1
        entry = r2.modelled[0]
        assert entry.key == key
        assert entry.status is WorkloadStatus.MODELLED
        assert entry.detail == "selection cache hit"
        assert entry.advisory is not None  # advisory recomputed from cache

    def test_changed_series_misses(self, planner, grid_call_counter):
        planner.register("acme", "db1", "cpu", _series(seed=3))
        planner.report()
        fits_first = len(grid_call_counter)
        planner.register("acme", "db1", "cpu", _series(seed=5))  # new data
        r2 = planner.report()
        assert len(grid_call_counter) > fits_first
        assert r2.trace.counters["selection_cache_misses"] == 1

    def test_changed_config_misses(self, grid_call_counter):
        cache = SelectionCache()
        series = _series()
        p1 = EstatePlanner(config=AutoConfig(technique="sarimax", max_lag=4), cache=cache)
        p1.register("acme", "db1", "cpu", series)
        p1.report()
        fits_first = len(grid_call_counter)
        p2 = EstatePlanner(config=AutoConfig(technique="sarimax", max_lag=3), cache=cache)
        p2.register("acme", "db1", "cpu", series)
        p2.report()
        assert len(grid_call_counter) > fits_first

    def test_threshold_change_still_hits_with_fresh_advisory(self, planner, grid_call_counter):
        series = _series()
        planner.register("acme", "db1", "cpu", series, threshold=60.0)
        r1 = planner.report()
        advisory1 = r1.modelled[0].advisory
        fits_first = len(grid_call_counter)
        planner.register("acme", "db1", "cpu", series, threshold=1.0)  # lower bar
        r2 = planner.report()
        assert len(grid_call_counter) == fits_first
        advisory2 = r2.modelled[0].advisory
        assert advisory2.severity != advisory1.severity  # recomputed, not stale


class TestCacheUnit:
    def test_get_put_roundtrip_and_counters(self):
        cache = SelectionCache()
        planner = EstatePlanner(
            config=AutoConfig(technique="sarimax", max_lag=4), cache=cache
        )
        series = _series()
        key = planner.register("a", "w", "cpu", series)
        assert cache.get(key, series, planner.config) is None
        planner.report()
        assert len(cache) == 1
        outcome = cache.get(key, series, planner.config)
        assert outcome is not None
        assert cache.hits == 1
        assert cache.misses >= 1

    def test_invalidate_and_clear(self):
        cache = SelectionCache()
        assert not cache.invalidate("nope")
        planner = EstatePlanner(
            config=AutoConfig(technique="sarimax", max_lag=4), cache=cache
        )
        key = planner.register("a", "w", "cpu", _series())
        planner.report()
        assert cache.invalidate(key)
        assert len(cache) == 0
        cache.clear()
