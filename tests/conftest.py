"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.core import Frequency, TimeSeries
from repro.models.base import FittedModel
from repro.selection.auto import SelectionOutcome


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def daily_series(rng) -> TimeSeries:
    """Hourly series with a clean daily cycle and mild noise."""
    t = np.arange(600)
    values = 50.0 + 10.0 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1.0, t.size)
    return TimeSeries(values, Frequency.HOURLY, name="cpu")


@pytest.fixture
def trending_series(rng) -> TimeSeries:
    """Hourly series with trend + daily cycle (Experiment Two shape)."""
    t = np.arange(800)
    values = (
        100.0
        + 0.1 * t
        + 12.0 * np.sin(2 * np.pi * t / 24)
        + rng.normal(0, 2.0, t.size)
    )
    return TimeSeries(values, Frequency.HOURLY, name="iops")


@pytest.fixture
def multiseasonal_series(rng) -> TimeSeries:
    """Hourly series with daily + weekly cycles (challenge C3)."""
    t = np.arange(1100)
    values = (
        80.0
        + 10.0 * np.sin(2 * np.pi * t / 24)
        + 5.0 * np.sin(2 * np.pi * t / 168)
        + rng.normal(0, 1.0, t.size)
    )
    return TimeSeries(values, Frequency.HOURLY, name="memory")


@pytest.fixture
def shocked_series(rng) -> TimeSeries:
    """Hourly series with a nightly backup spike (challenge C4)."""
    t = np.arange(720)
    values = 60.0 + 8.0 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1.0, t.size)
    values[(t % 24) == 0] += 30.0
    return TimeSeries(values, Frequency.HOURLY, name="iops")


@pytest.fixture
def white_noise(rng) -> TimeSeries:
    return TimeSeries(rng.normal(0, 1, 400), Frequency.HOURLY, name="noise")


@dataclass
class FlatModel(FittedModel):
    """A cheap stand-in for a selected model: a flat forecast, unit error bars.

    The level is the mean of the fit window's last day. ``advance`` rolls
    like a real family: ``train`` grows, the fit-time level stays, and
    the innovations are ``values - level``.
    """

    level: float | None = None

    def __post_init__(self) -> None:
        if self.level is None:
            self.level = float(np.mean(self.train.values[-24:]))

    def forecast(self, horizon, alpha=0.05, **kwargs):
        return self.make_forecast(np.full(horizon, self.level), np.ones(horizon), alpha)

    def advance(self, values):
        values = np.asarray(values, dtype=float)
        train = replace(self.train, values=np.concatenate([self.train.values, values]))
        return replace(self, train=train), values - self.level

    def label(self):
        return "flat"


@pytest.fixture
def stub_selection(monkeypatch) -> list[str]:
    """Make the estate's selection fit a :class:`FlatModel`; no grid runs.

    Returns the names of the series selected, in order, so tests can
    count selections.
    """
    calls: list[str] = []

    def fake_auto_select(series, config=None, executor=None, **kwargs):
        calls.append(series.name)
        model = FlatModel(train=series, residuals=np.zeros(len(series)), sigma2=1.0, n_params=1)
        return SelectionOutcome(
            model=model,
            technique="hes",
            test_rmse=1.0,
            best_spec=None,
            seasonality=None,
            shock_calendar=None,
        )

    monkeypatch.setattr("repro.service.estate.auto_select_many", per_series(fake_auto_select))
    return calls


def per_series(select):
    """Adapt a one-series selection stub to the estate's batch seam.

    ``EstatePlanner.report`` selects every pending series in one
    ``auto_select_many`` call, which returns an outcome or the raised
    exception per series.
    """

    def select_many(series_list, config=None):
        out = []
        for series in series_list:
            try:
                out.append(select(series, config=config))
            except Exception as exc:
                out.append(exc)
        return out

    return select_many
