"""``ets.fit_many``: lockstep smoothing fits equal ``optimize.minimize`` fits bit for bit.

The oracle is the per-job ``optimize.minimize`` path that ``fit_many``
falls back to when the scipy check fails, forced here by stubbing the
check; the lockstep path must reproduce its parameters, SSE and fitted
state exactly, whatever the batch mixes.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Frequency, TimeSeries
from repro.exceptions import DataError
from repro.models import ets, kernels, lbfgsb
from repro.models.ets import Holt, HoltWinters, SimpleExpSmoothing, fit_many


@contextmanager
def minimize_only():
    """Every fit through ``optimize.minimize``: the scipy check reads 'different'."""
    ets._lockstep_ok.cache_clear()
    try:
        with mock.patch.object(lbfgsb, "_setulb", None):
            yield
    finally:
        ets._lockstep_ok.cache_clear()


def fingerprint(result):
    """Everything a fit carries, as comparable bytes (or the exception raised)."""
    if isinstance(result, Exception):
        return (type(result).__name__, str(result))
    scalars = (
        result.alpha,
        result.beta,
        result.gamma,
        result.phi,
        result.level,
        result.trend,
        float(result.residuals @ result.residuals),
        result.sigma2,
    )
    # Bit patterns, so a NaN state (an overflowing recursion) compares equal.
    return (
        result.family,
        result.spec,
        result.n_params,
        np.array(scalars, dtype=float).tobytes(),
        result.seasonal_state.tobytes(),
        result.residuals.tobytes(),
    )


def make_series(kind: str, n: int, period: int, seed: int) -> TimeSeries:
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    if kind == "seasonal":
        y = 50 + 0.05 * t + 6 * np.sin(2 * np.pi * t / period) + rng.normal(0, 1, n)
    elif kind == "walk":  # level smoothing runs to the alpha upper bound
        y = 60 + np.cumsum(rng.normal(0, 2.0, n))
    elif kind == "diverging":  # every SSE overflows: the 1e12 penalty
        y = 1e200 * (1.5 + np.sin(2 * np.pi * t / period)) * rng.uniform(0.5, 2.0, n)
    else:
        raise AssertionError(kind)
    return TimeSeries(np.abs(y) + 1.0, Frequency.HOURLY)


MODELS = {
    "ses": lambda period: SimpleExpSmoothing(),
    "ses_fixed": lambda period: SimpleExpSmoothing(alpha=0.35),
    "holt": lambda period: Holt(),
    "holt_damped": lambda period: Holt(damped=True),
    "hw_add": lambda period: HoltWinters(period, seasonal="add"),
    "hw_mul": lambda period: HoltWinters(period, seasonal="mul"),
    "hw_add_damped": lambda period: HoltWinters(period, seasonal="add", damped=True),
}

job_strategy = st.tuples(
    st.sampled_from(sorted(MODELS)),
    st.sampled_from(["seasonal", "seasonal", "walk", "diverging", "short"]),
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=0, max_value=2),  # picks one of three lengths
    st.integers(min_value=0, max_value=10_000),
)


def build_jobs(drawn):
    jobs = []
    for name, kind, period, length, seed in drawn:
        model = MODELS[name](period)
        if kind == "short":  # raises DataError beside the jobs that succeed
            series = make_series("seasonal", model.min_observations - 1, period, seed)
        else:
            n = max(model.min_observations, (2 * period + 8, 40, 75)[length])
            series = make_series(kind, n, period, seed)
        jobs.append((model, series))
    return jobs


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    drawn=st.lists(job_strategy, min_size=1, max_size=14),
    min_rows=st.sampled_from([1, 6, ets.LOCKSTEP_MIN_ROWS, 10**6]),
    maxiter=st.sampled_from([ets._MAXITER, ets._MAXITER, 1, 3]),
)
def test_lockstep_fits_equal_minimize_fits(drawn, min_rows, maxiter):
    jobs = build_jobs(drawn)
    with mock.patch.object(ets, "_MAXITER", maxiter):
        with minimize_only():
            oracle = [fingerprint(r) for r in fit_many(jobs)]
        with mock.patch.object(ets, "LOCKSTEP_MIN_ROWS", min_rows):
            lockstep = [fingerprint(r) for r in fit_many(jobs)]
    assert lockstep == oracle


class TestFitMany:
    def test_single_fit_is_the_batch_of_one(self):
        series = make_series("seasonal", 120, 12, 3)
        model = HoltWinters(12, seasonal="mul")
        assert fingerprint(model.fit(series)) == fingerprint(fit_many([(model, series)])[0])

    def test_failing_job_keeps_its_exception_and_neighbours_fit(self):
        good = make_series("seasonal", 80, 6, 1)
        jobs = [
            (HoltWinters(6), good),
            (HoltWinters(24), good),  # needs 49 points: fine
            (HoltWinters(48), good),  # needs 97 points: raises
            (Holt(), good),
        ]
        results = fit_many(jobs)
        assert isinstance(results[2], DataError)
        with pytest.raises(DataError) as raised:
            HoltWinters(48).fit(good)
        assert str(results[2]) == str(raised.value)
        assert [fingerprint(r) for i, r in enumerate(results) if i != 2] == [
            fingerprint(model.fit(series)) for i, (model, series) in enumerate(jobs) if i != 2
        ]

    def test_wide_rounds_run_batched_and_narrow_rounds_row_by_row(self):
        jobs = [(HoltWinters(24), make_series("seasonal", 300, 24, s)) for s in range(12)]
        before = kernels.stats_snapshot()
        fit_many(jobs)
        after = kernels.stats_snapshot()
        # 12 jobs x 4 points per round: wide enough for the batched kernel.
        batched = "kernel_ets_recursion_batch_calls"
        assert after[batched] > before[batched]
        before = kernels.stats_snapshot()
        fit_many(jobs[:2])  # 8 rows a round: below the break-even
        after = kernels.stats_snapshot()
        batched = "kernel_ets_recursion_batch_calls"
        assert after[batched] == before[batched]

    def test_fallback_gives_the_same_fits(self):
        jobs = [(HoltWinters(24, seasonal=s), make_series("seasonal", 300, 24, k))
                for k in range(10) for s in ("add", "mul")]
        lockstep = [fingerprint(r) for r in fit_many(jobs)]
        with minimize_only():
            assert not ets._lockstep_ok()
            before = kernels.stats_snapshot()
            fallback = [fingerprint(r) for r in fit_many(jobs)]
            after = kernels.stats_snapshot()
        assert fallback == lockstep
        # Nothing ran batched: every objective went through minimize.
        batched = "kernel_ets_recursion_batch_calls"
        assert after[batched] == before[batched]


class TestScipyCheck:
    def test_installed_scipy_matches(self):
        assert lbfgsb.matches_minimize()

    def test_a_different_setulb_interface_fails_the_check(self):
        def old_interface(*args):  # e.g. the pre-1.15 Fortran wrapper's arity
            raise TypeError("setulb() takes 16 positional arguments")

        with mock.patch.object(lbfgsb, "_setulb", old_interface):
            assert not lbfgsb.matches_minimize()

    def test_a_missing_setulb_fails_the_check(self):
        with mock.patch.object(lbfgsb, "_setulb", None):
            assert not lbfgsb.matches_minimize()

    def test_generator_reproduces_minimize_with_the_step_flip(self):
        from scipy import optimize

        def objective(x):
            return float((x[0] - 2.0) ** 2 + (x[1] - 0.5) ** 2 + x[0] * x[1])

        x0, bounds = np.array([0.9999, 0.2]), [(1e-4, 0.9999), (1e-4, 0.9999)]
        oracle = optimize.minimize(objective, x0, method="L-BFGS-B", bounds=bounds)
        x, fun = lbfgsb.drive(
            lbfgsb.minimize_steps(x0, [1e-4, 1e-4], [0.9999, 0.9999], maxiter=15000),
            objective,
        )
        assert x[0] == 0.9999  # the optimum sits on the bound
        assert np.array_equal(x, oracle.x) and fun == oracle.fun
