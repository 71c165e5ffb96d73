"""Day-profile model family: determinism, state rolls and cohort parity."""

import subprocess
import sys

import numpy as np
import pytest

from repro.core import Frequency, TimeSeries
from repro.exceptions import DataError, ModelError
from repro.models import DayProfile
from repro.models.dayprofile import (
    DayProfileSpec,
    _step_label,
    advance_cohort,
    forecast_cohort_arrays,
)

PERIOD = 24


def three_shape_series(n_days=12, seed=0, noise=0.5, start_day=0):
    """A 3-day repeating cycle of distinct shapes plus noise.

    Three shapes (flat night-heavy, business plateau, evening spike) in a
    fixed rotation — exactly the regime the day-profile family models and
    a lag-24 SARIMA cannot (the repeat is at lag 72).
    """
    rng = np.random.default_rng(seed)
    hours = np.arange(PERIOD)
    shapes = [
        20.0 + 2.0 * np.sin(2 * np.pi * hours / PERIOD),
        50.0 + 20.0 * ((hours >= 9) & (hours <= 17)),
        30.0 + 40.0 * np.exp(-0.5 * ((hours - 20.0) / 2.0) ** 2),
    ]
    days = [shapes[(start_day + d) % 3] for d in range(n_days)]
    values = np.concatenate(days) + rng.normal(0, noise, n_days * PERIOD)
    return TimeSeries(values, frequency=Frequency.HOURLY, start=0.0, name="x.cpu")


def chain_labels(fitted, n_days):
    """Labels 1..n_days days past the last complete day, one _step_label each."""
    labels, current = [], int(fitted.labels[-1])
    for __ in range(n_days):
        current = _step_label(fitted.transition, current, fitted.spec.seed)
        labels.append(current)
    return labels


class TestFit:
    def test_fit_is_deterministic(self):
        series = three_shape_series()
        a = DayProfile(n_clusters=3, period=PERIOD, seed=0).fit(series)
        b = DayProfile(n_clusters=3, period=PERIOD, seed=0).fit(series)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.z_centroids, b.z_centroids)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.transition, b.transition)
        np.testing.assert_array_equal(
            a.forecast(48).mean.values, b.forecast(48).mean.values
        )

    def test_determinism_across_hash_seeds(self):
        """The full fit+forecast digest is PYTHONHASHSEED-independent."""
        snippet = (
            "import numpy as np, hashlib;"
            "from repro.core import Frequency, TimeSeries;"
            "from repro.models import DayProfile;"
            "rng = np.random.default_rng(3);"
            "hours = np.arange(24);"
            "shapes = [20+2*np.sin(2*np.pi*hours/24), 50+20*((hours>=9)&(hours<=17)),"
            " 30+40*np.exp(-0.5*((hours-20)/2)**2)];"
            "vals = np.concatenate([shapes[d%3] for d in range(9)]) + rng.normal(0,0.5,216);"
            "f = DayProfile(n_clusters=3, period=24, seed=0)"
            ".fit(TimeSeries(vals, frequency=Frequency.HOURLY));"
            "fc = f.forecast(48);"
            "print(hashlib.sha256(fc.mean.values.tobytes()+fc.upper.values.tobytes()"
            "+f.labels.tobytes()).hexdigest())"
        )
        digests = set()
        for hashseed in ("0", "424242"):
            proc = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": hashseed},
                check=True,
            )
            digests.add(proc.stdout.strip())
        assert len(digests) == 1

    def test_labels_recover_the_three_day_cycle(self):
        fitted = DayProfile(n_clusters=3, period=PERIOD, seed=0).fit(
            three_shape_series()
        )
        # Canonical numbering: first-appearance order, so the rotation is
        # literally 0,1,2,0,1,2,...
        assert fitted.labels.tolist() == [d % 3 for d in range(12)]
        assert fitted.spec == DayProfileSpec(period=PERIOD, n_clusters=3, seed=0)
        assert fitted.label() == "DayProfile(k=3, m=24)"

    def test_clusters_capped_by_day_count(self):
        fitted = DayProfile(n_clusters=8, period=PERIOD, seed=0).fit(
            three_shape_series(n_days=4)
        )
        assert fitted.spec.n_clusters == 4

    def test_too_little_history_rejected(self):
        with pytest.raises(DataError):
            DayProfile(period=PERIOD).fit(three_shape_series(n_days=2))

    def test_unknown_fit_options_rejected(self):
        # The grid's warm-start fallback relies on this exact behaviour.
        with pytest.raises(ModelError, match="unexpected fit options"):
            DayProfile(period=PERIOD).fit(three_shape_series(), exog=np.ones((288, 1)))

    def test_invalid_construction(self):
        with pytest.raises(ModelError):
            DayProfile(n_clusters=1)
        with pytest.raises(ModelError):
            DayProfile(period=1)

    def test_partial_trailing_day_sets_phase(self):
        series = three_shape_series()
        trimmed = TimeSeries(
            series.values[:-7], frequency=Frequency.HOURLY, start=0.0, name="x.cpu"
        )
        fitted = DayProfile(n_clusters=3, period=PERIOD, seed=0).fit(trimmed)
        assert fitted.phase == PERIOD - 7
        assert len(fitted.labels) == 11


class TestForecast:
    def test_day_ahead_beats_noise_floor(self):
        noise = 0.5
        train = three_shape_series(n_days=12, noise=noise)
        fitted = DayProfile(n_clusters=3, period=PERIOD, seed=0).fit(train)
        # Day 12 continues the rotation with shape 12 % 3 == 0.
        truth = three_shape_series(n_days=13, noise=noise).values[-PERIOD:]
        mae = float(np.abs(fitted.forecast(PERIOD).mean.values - truth).mean())
        assert mae < 3.0 * noise

    def test_forecast_mean_is_a_centroid_gather(self):
        fitted = DayProfile(n_clusters=3, period=PERIOD, seed=0).fit(
            three_shape_series()
        )
        fc = fitted.forecast(2 * PERIOD)
        # Full-day horizon from phase 0: two chain steps, one centroid each.
        next_label = chain_labels(fitted, 2)
        np.testing.assert_array_equal(
            fc.mean.values[:PERIOD], fitted.centroids[next_label[0]]
        )
        np.testing.assert_array_equal(
            fc.mean.values[PERIOD:], fitted.centroids[next_label[1]]
        )

    def test_bands_widen_with_days_ahead(self):
        fitted = DayProfile(n_clusters=3, period=PERIOD, seed=0).fit(
            three_shape_series()
        )
        fc = fitted.forecast(3 * PERIOD)
        width = fc.upper.values - fc.mean.values
        # The half-width at every position is z * band_stds[label, slot]
        # * sqrt(days-ahead): day three is sqrt(3)x its own day-one base.
        offsets = fitted.phase + np.arange(3 * PERIOD)
        slots, steps = offsets % PERIOD, offsets // PERIOD + 1
        labels = np.asarray(chain_labels(fitted, 3))[steps - 1]
        base = width / np.sqrt(steps.astype(float))
        np.testing.assert_allclose(
            base, base[0] / fitted.band_stds[labels[0], slots[0]]
            * fitted.band_stds[labels, slots], rtol=1e-9,
        )
        assert (steps[2 * PERIOD :] == 3).all()
        np.testing.assert_allclose(
            width[2 * PERIOD :] / base[2 * PERIOD :], np.sqrt(3.0), rtol=1e-9
        )

    def test_invalid_horizon(self):
        fitted = DayProfile(period=PERIOD).fit(three_shape_series())
        with pytest.raises(ModelError):
            fitted.forecast(0)


class TestAdvance:
    def test_chunking_invariance_exact(self):
        """advance over any split is bit-identical to one whole-batch roll."""
        fitted = DayProfile(n_clusters=3, period=PERIOD, seed=0).fit(
            three_shape_series()
        )
        new = three_shape_series(n_days=15, seed=7).values[-61:]  # crosses 2 day edges

        whole, innov_whole = fitted.advance(new)
        stepped, innov_parts = fitted, []
        for chunk in (new[:5], new[5:30], new[30:31], new[31:]):
            stepped, innov = stepped.advance(chunk)
            innov_parts.append(innov)

        np.testing.assert_array_equal(innov_whole, np.concatenate(innov_parts))
        np.testing.assert_array_equal(whole.labels, stepped.labels)
        np.testing.assert_array_equal(whole.train.values, stepped.train.values)
        np.testing.assert_array_equal(whole.residuals, stepped.residuals)
        assert whole.phase == stepped.phase

    def test_roll_labels_new_days_without_refitting(self):
        fitted = DayProfile(n_clusters=3, period=PERIOD, seed=0).fit(
            three_shape_series(n_days=12)
        )
        # Day 12 of the rotation has shape index 0.
        day12 = three_shape_series(n_days=13, seed=5).values[-PERIOD:]
        rolled, innovations = fitted.advance(day12)
        assert len(rolled.labels) == 13
        assert int(rolled.labels[-1]) == 0
        assert rolled.phase == 0
        np.testing.assert_array_equal(rolled.centroids, fitted.centroids)
        np.testing.assert_array_equal(rolled.transition, fitted.transition)
        # Innovation = observation minus the served (pre-roll) forecast.
        np.testing.assert_allclose(
            innovations, day12 - fitted.forecast(PERIOD).mean.values, atol=1e-12
        )

    def test_non_finite_values_rejected(self):
        fitted = DayProfile(period=PERIOD).fit(three_shape_series())
        with pytest.raises(ModelError):
            fitted.advance(np.array([1.0, np.nan]))

    def test_empty_roll_rejected(self):
        fitted = DayProfile(period=PERIOD).fit(three_shape_series())
        with pytest.raises(ModelError):
            fitted.advance(np.array([]))


class TestCohort:
    def _cohort(self, n=4):
        return [
            DayProfile(n_clusters=3, period=PERIOD, seed=0).fit(
                three_shape_series(seed=s, start_day=s)
            )
            for s in range(n)
        ]

    def test_advance_cohort_matches_per_model(self):
        models = self._cohort()
        block = np.stack(
            [three_shape_series(n_days=13, seed=90 + i).values[-30:] for i in range(4)]
        )
        batched, innov_b = advance_cohort(models, block)
        for i, model in enumerate(models):
            solo, innov_s = model.advance(block[i])
            np.testing.assert_array_equal(innov_b[i], innov_s)
            np.testing.assert_array_equal(batched[i].labels, solo.labels)
            np.testing.assert_array_equal(batched[i].train.values, solo.train.values)
            assert batched[i].phase == solo.phase

    def test_forecast_cohort_matches_per_model(self):
        models = self._cohort()
        horizon, alpha = 40, 0.1
        mean, lower, upper = forecast_cohort_arrays(models, horizon, alpha=alpha)
        for i, model in enumerate(models):
            fc = model.forecast(horizon, alpha=alpha)
            np.testing.assert_array_equal(mean[i], fc.mean.values)
            np.testing.assert_array_equal(lower[i], fc.lower.values)
            np.testing.assert_array_equal(upper[i], fc.upper.values)

    def test_mixed_spec_cohort_rejected(self):
        a = DayProfile(n_clusters=3, period=PERIOD, seed=0).fit(three_shape_series())
        b = DayProfile(n_clusters=2, period=PERIOD, seed=0).fit(three_shape_series())
        with pytest.raises(ModelError):
            advance_cohort([a, b], np.zeros((2, 3)))
        with pytest.raises(ModelError):
            forecast_cohort_arrays([a, b], 24)

    def test_shape_mismatch_rejected(self):
        models = self._cohort(2)
        with pytest.raises(ModelError):
            advance_cohort(models, np.zeros((3, 4)))
        with pytest.raises(ModelError):
            advance_cohort(models, np.zeros(4))
