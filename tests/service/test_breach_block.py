"""The block breach grader against the per-row grader it replaced.

:func:`predict_breach_arrays` grades a whole ``(B, H)`` cohort block in
one array pass, with the normal quantile and tail taken from
``scipy.special``. The oracle below is the per-row grader it replaced,
kept verbatim: it grades one row at a time and calls ``scipy.stats.norm``.
Every verdict must match it in ``repr`` — the serving loop's outputs are
hashed from reprs, so a last-bit difference or a numpy scalar where a
Python float stood would change them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from repro.core import Frequency, TimeSeries
from repro.core.stats import band_z
from repro.exceptions import DataError
from repro.models.base import Forecast
from repro.service.thresholds import (
    BreachPrediction,
    BreachSeverity,
    breach_probability_arrays,
    predict_breach,
    predict_breach_arrays,
)


# ---------------------------------------------------------------------------
# The per-row oracle: the grader as it was before the block pass.
# ---------------------------------------------------------------------------
def oracle_probability(mean, upper, threshold, alpha=0.05):
    mean = np.asarray(mean, dtype=float)
    upper = np.asarray(upper, dtype=float)
    finite = np.isfinite(mean) & np.isfinite(upper)
    if not finite.any():
        return float("nan")
    centre = mean[finite]
    half = upper[finite] - centre
    z = float(stats.norm.ppf(1.0 - alpha / 2.0))
    steps = np.where(centre >= threshold, 1.0, 0.0)
    widened = half > 0.0
    if widened.any():
        margin = (threshold - centre[widened]) * (z / half[widened])
        steps[widened] = stats.norm.sf(margin)
    return float(1.0 - np.prod(1.0 - steps))


def oracle_grade(mean, lower, upper, timestamps, threshold, alpha=0.05):
    def first_crossing(values):
        hits = np.flatnonzero(values >= threshold)
        return int(hits[0]) if hits.size else None

    finite_mean = mean[np.isfinite(mean)]
    if finite_mean.size == 0:
        return BreachPrediction(
            severity=BreachSeverity.NONE,
            first_breach_step=None,
            first_breach_timestamp=None,
            threshold=threshold,
            headroom=float("nan"),
            probability=float("nan"),
        )
    headroom = float(threshold - finite_mean.max())
    probability = oracle_probability(mean, upper, threshold, alpha=alpha)
    for values, severity in (
        (lower, BreachSeverity.CERTAIN),
        (mean, BreachSeverity.LIKELY),
        (upper, BreachSeverity.POSSIBLE),
    ):
        idx = first_crossing(values)
        if idx is not None:
            return BreachPrediction(
                severity=severity,
                first_breach_step=idx + 1,
                first_breach_timestamp=float(timestamps[idx]),
                threshold=threshold,
                headroom=headroom,
                probability=probability,
            )
    return BreachPrediction(
        severity=BreachSeverity.NONE,
        first_breach_step=None,
        first_breach_timestamp=None,
        threshold=threshold,
        headroom=headroom,
        probability=probability,
    )


# ---------------------------------------------------------------------------
# Random blocks
# ---------------------------------------------------------------------------
LAYOUTS = ("contiguous", "column-slice", "row-stride", "fortran")
NON_FINITE = np.array([np.nan, np.inf, -np.inf])


def _lay_out(block, layout):
    """``block`` as the memory layout under test (same values)."""
    rows, horizon = block.shape
    if layout == "column-slice":  # the scheduler's ``[:, elapsed:]`` view
        wide = np.full((rows, horizon + 3), -7.0)
        wide[:, 3:] = block
        return wide[:, 3:]
    if layout == "row-stride":
        tall = np.full((2 * rows, horizon), -7.0)
        tall[::2] = block
        return tall[::2]
    if layout == "fortran":
        return np.asfortranarray(block)
    return block


def make_block(rows, horizon, seed, bad_rate, layout):
    """Clipped bands around per-row thresholds, with the grader's edge cases.

    Zero-width rows and steps, steps sitting exactly on the threshold,
    idle rows clipped to zero, ±0 values, NaN/±inf in any band and
    all-NaN rows; thresholds mix Python floats, ints, 0.0 and -0.0.
    """
    rng = np.random.default_rng(seed)
    thresholds = [float(t) for t in rng.uniform(20.0, 120.0, rows)]
    for i in range(rows):
        pick = rng.random()
        if pick < 0.1:
            thresholds[i] = int(rng.integers(20, 120))
        elif pick < 0.15:
            thresholds[i] = 0.0
        elif pick < 0.2:
            thresholds[i] = -0.0
    limits = np.asarray(thresholds, dtype=float)[:, None]
    centre = limits + rng.normal(0.0, 25.0, (rows, horizon))
    # Idle keys: the whole forecast clips to zero, so the row peak is a zero.
    idle = rng.random(rows) < 0.1
    centre[idle] = -5.0
    on_threshold = rng.random((rows, horizon)) < 0.05
    centre[on_threshold] = np.broadcast_to(limits, centre.shape)[on_threshold]
    half = np.abs(rng.normal(0.0, 10.0, (rows, horizon)))
    half[rng.random(rows) < 0.15] = 0.0
    half[rng.random((rows, horizon)) < 0.1] = 0.0
    mean = np.maximum(centre, 0.0)
    lower = np.maximum(centre - half, 0.0)
    upper = np.maximum(centre + half, 0.0)
    signed_zero = rng.random((rows, horizon)) < 0.05
    signed_zero[idle] = True
    mean[signed_zero] = rng.choice([0.0, -0.0], size=int(signed_zero.sum()))
    for band in (mean, lower, upper):
        bad = rng.random((rows, horizon)) < bad_rate
        band[bad] = rng.choice(NON_FINITE, size=int(bad.sum()))
    mean[rng.random(rows) < 0.1] = np.nan
    starts = [float(s) for s in rng.uniform(0.0, 2e9, rows)]
    return (
        _lay_out(mean, layout),
        _lay_out(lower, layout),
        _lay_out(upper, layout),
        starts,
        thresholds,
    )


blocks = st.fixed_dictionaries(
    {
        "rows": st.sampled_from([1, 3, 17, 256]),
        "horizon": st.sampled_from([1, 24, 192]),
        "seed": st.integers(0, 2**32 - 1),
        "bad_rate": st.sampled_from([0.0, 0.02, 0.3]),
        "layout": st.sampled_from(LAYOUTS),
        "alpha": st.sampled_from([0.05, 0.2, 0.01]),
        "step": st.sampled_from([3600.0, 900.0, 86400.0]),
    }
)


def _python_scalar_fields(advisory):
    assert type(advisory.headroom) is float
    assert type(advisory.probability) is float
    assert advisory.first_breach_step is None or type(advisory.first_breach_step) is int
    assert advisory.first_breach_timestamp is None or type(
        advisory.first_breach_timestamp
    ) is float


class TestBlockEqualsPerRowOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=blocks)
    def test_block_matches_oracle_row_by_row(self, case):
        mean, lower, upper, starts, thresholds = make_block(
            case["rows"], case["horizon"], case["seed"], case["bad_rate"], case["layout"]
        )
        step, alpha = case["step"], case["alpha"]
        graded = predict_breach_arrays(
            mean, lower, upper, starts, step, thresholds, alpha=alpha
        )
        assert len(graded) == case["rows"]
        steps = np.arange(case["horizon"])
        for i, advisory in enumerate(graded):
            timestamps = starts[i] + steps * step
            expected = oracle_grade(
                mean[i], lower[i], upper[i], timestamps, thresholds[i], alpha=alpha
            )
            assert repr(advisory) == repr(expected), i
            assert advisory.threshold is thresholds[i]
            _python_scalar_fields(advisory)

    @settings(max_examples=40, deadline=None)
    @given(case=blocks)
    def test_probability_one_row_case_matches_oracle(self, case):
        mean, __, upper, __, thresholds = make_block(
            min(case["rows"], 17), case["horizon"], case["seed"], case["bad_rate"], case["layout"]
        )
        for i, threshold in enumerate(thresholds):
            got = breach_probability_arrays(mean[i], upper[i], threshold, alpha=case["alpha"])
            assert type(got) is float
            assert repr(got) == repr(
                oracle_probability(mean[i], upper[i], threshold, alpha=case["alpha"])
            )

    @settings(max_examples=40, deadline=None)
    @given(case=blocks)
    def test_forecast_one_row_case_matches_oracle(self, case):
        mean, lower, upper, starts, thresholds = make_block(
            3, case["horizon"], case["seed"], case["bad_rate"], "contiguous"
        )
        frequency = Frequency.HOURLY
        for i, threshold in enumerate(thresholds):
            def series(values, i=i):
                return TimeSeries(values[i], frequency, start=starts[i])

            forecast = Forecast(
                mean=series(mean),
                lower=series(lower),
                upper=series(upper),
                alpha=case["alpha"],
                model_label="test",
            )
            expected = oracle_grade(
                forecast.mean.values,
                forecast.lower.values,
                forecast.upper.values,
                forecast.mean.timestamps,
                threshold,
                alpha=case["alpha"],
            )
            assert repr(predict_breach(forecast, threshold)) == repr(expected)

    def test_all_nan_and_empty_rows_grade_safe(self):
        nan_row = np.full((2, 4), np.nan)
        graded = predict_breach_arrays(nan_row, nan_row, nan_row, [0.0, 1.0], 3600.0, [80.0, 70])
        for advisory, threshold in zip(graded, [80.0, 70]):
            assert advisory.severity is BreachSeverity.NONE
            assert advisory.first_breach_step is None
            assert np.isnan(advisory.headroom) and np.isnan(advisory.probability)
            assert advisory.threshold is threshold
        empty = np.empty((3, 0))
        graded = predict_breach_arrays(empty, empty, empty, [0.0] * 3, 3600.0, [1.0] * 3)
        assert [a.severity for a in graded] == [BreachSeverity.NONE] * 3
        assert predict_breach_arrays(
            np.empty((0, 5)), np.empty((0, 5)), np.empty((0, 5)), [], 3600.0, []
        ) == []

    def test_validation(self):
        band = np.full((2, 3), 10.0)
        with pytest.raises(DataError):
            predict_breach_arrays(band, band, band, [0.0, 0.0], 3600.0, [80.0, np.nan])
        with pytest.raises(DataError):
            predict_breach_arrays(band, band, band, [0.0, 0.0], 3600.0, [80.0, 80.0], alpha=1.0)
        with pytest.raises(DataError):
            predict_breach_arrays(band, band, band[:1], [0.0, 0.0], 3600.0, [80.0, 80.0])
        with pytest.raises(DataError):
            predict_breach_arrays(band, band, band, [0.0], 3600.0, [80.0, 80.0])


# ---------------------------------------------------------------------------
# The special-function swap itself
# ---------------------------------------------------------------------------
def _same_bits(a, b):
    """Equal bit for bit, except that any NaN matches any NaN."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


class TestSpecialFunctionSwap:
    EDGE_ALPHAS = [0.0, 1.0, 2.0, -1.0, 0.5, 1e-300, 5e-324, 1.0 - 1e-16, np.nan, np.inf, -np.inf]

    def test_band_z_equals_norm_ppf_bitwise(self):
        rng = np.random.default_rng(0)
        alphas = np.concatenate(
            [
                rng.uniform(0.0, 1.0, 2000),
                10.0 ** rng.uniform(-300, 0, 1000),
                rng.uniform(-3.0, 3.0, 500),
                self.EDGE_ALPHAS,
            ]
        )
        for alpha in alphas.tolist():
            expected = float(stats.norm.ppf(1.0 - alpha / 2.0))
            assert repr(band_z(alpha)) == repr(expected), alpha

    def test_ndtri_equals_norm_ppf_bitwise(self):
        rng = np.random.default_rng(1)
        q = np.concatenate(
            [rng.uniform(0.0, 1.0, 100_000), [0.0, 1.0, 0.5, np.nan, -0.5, 1.5, np.inf, -np.inf]]
        )
        _same_bits(special.ndtri(q), stats.norm.ppf(q))

    def test_tail_equals_norm_sf_bitwise(self):
        rng = np.random.default_rng(2)
        x = np.concatenate(
            [
                rng.normal(0.0, 3.0, 100_000),
                rng.uniform(-40.0, 40.0, 100_000),
                [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 38.5, -38.5],
            ]
        )
        _same_bits(special.ndtr(-x), stats.norm.sf(x))

    def test_multiply_reduce_runs_in_row_order(self):
        # The block's row product pads non-finite steps with exact 1.0
        # factors; that is only bit-identical if the reduction multiplies
        # left to right, never pairwise, whatever the layout.
        rng = np.random.default_rng(3)
        block = rng.uniform(0.5, 1.0, (64, 192))
        for view in (block, np.asfortranarray(block), block[:, 5:], block[::2]):
            products = np.prod(view, axis=1)
            for i in range(view.shape[0]):
                acc = 1.0
                for value in view[i].tolist():
                    acc *= value
                assert products[i] == acc
