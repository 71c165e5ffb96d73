"""Tests for SARIMAX with exogenous regressors and Fourier terms."""

import numpy as np
import pytest

from repro.core import TimeSeries, rmse
from repro.exceptions import DataError, ModelError
from repro.models import Arima, Sarimax


def shocked_seasonal(n=1032, shock_mag=40.0, seed=0):
    """Daily-cycle series with a midnight shock; returns (y, shock_indicator)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    shock = ((t % 24) == 0).astype(float)
    y = (
        100.0
        + 10.0 * np.sin(2 * np.pi * t / 24)
        + shock_mag * shock
        + rng.normal(0, 1.5, n)
    )
    return y, shock


class TestExogenous:
    def test_shock_coefficient_recovered(self):
        # With a non-seasonal error model the periodic indicator is fully
        # identifiable and beta must recover the true +40 shock.
        y, shock = shocked_seasonal()
        train = TimeSeries(y[:1008])
        fit = Sarimax(
            (1, 0, 1), fourier_periods=[24], fourier_orders=[2]
        ).fit(train, exog=shock[:1008])
        assert fit.beta[0] == pytest.approx(40.0, abs=6.0)

    def test_periodic_shock_under_seasonal_differencing(self):
        # A shock that is perfectly periodic at the seasonal period is
        # annihilated by (1-B^24) (and mimicked by a seasonal AR with
        # Phi → 1): how the fit splits it between the seasonal component
        # and beta is unidentifiable. What IS required: finite beta and an
        # accurate forecast (the split cancels out in prediction).
        y, shock = shocked_seasonal()
        train = TimeSeries(y[:1008])
        fit = Sarimax((1, 0, 1), seasonal=(0, 1, 1, 24)).fit(train, exog=shock[:1008])
        assert np.isfinite(fit.beta).all()
        fc = fit.forecast(24, exog_future=shock[1008:1032])
        assert rmse(y[1008:1032], fc.mean.values) < 5.0

    def test_forecast_uses_future_exog(self):
        y, shock = shocked_seasonal()
        train = TimeSeries(y[:1008])
        fit = Sarimax((1, 0, 1), seasonal=(1, 1, 1, 24)).fit(train, exog=shock[:1008])
        fc = fit.forecast(24, exog_future=shock[1008:1032])
        assert rmse(y[1008:1032], fc.mean.values) < 5.0
        # The shock hour is at step 1 (index 1008 % 24 == 0).
        assert fc.mean.values[0] > fc.mean.values[1]

    def test_forecast_requires_future_exog(self):
        y, shock = shocked_seasonal()
        fit = Sarimax((1, 0, 0)).fit(TimeSeries(y[:500]), exog=shock[:500])
        with pytest.raises(ModelError):
            fit.forecast(10)

    def test_forecast_rejects_wrong_exog_width(self):
        y, shock = shocked_seasonal()
        fit = Sarimax((1, 0, 0)).fit(TimeSeries(y[:500]), exog=shock[:500])
        with pytest.raises(ModelError):
            fit.forecast(10, exog_future=np.zeros((10, 3)))

    def test_forecast_rejects_unexpected_exog(self):
        y, __ = shocked_seasonal()
        fit = Sarimax((1, 0, 0)).fit(TimeSeries(y[:500]))
        with pytest.raises(ModelError):
            fit.forecast(10, exog_future=np.ones((10, 1)))

    def test_zero_column_exog_treated_as_none(self):
        y, __ = shocked_seasonal()
        fit = Sarimax((1, 0, 0)).fit(TimeSeries(y[:300]), exog=np.empty((300, 0)))
        fc = fit.forecast(5, exog_future=np.empty((5, 0)))
        assert np.isfinite(fc.mean.values).all()

    def test_exog_must_align(self):
        y, shock = shocked_seasonal()
        with pytest.raises(DataError):
            Sarimax((1, 0, 0)).fit(TimeSeries(y[:500]), exog=shock[:400])

    def test_exog_rejects_nan(self):
        y, shock = shocked_seasonal()
        bad = shock[:500].copy()
        bad[3] = np.nan
        with pytest.raises(DataError):
            Sarimax((1, 0, 0)).fit(TimeSeries(y[:500]), exog=bad)

    def test_collinear_exog_rejected(self):
        y, shock = shocked_seasonal()
        X = np.column_stack([shock[:500], shock[:500]])
        with pytest.raises(ModelError):
            Sarimax((1, 0, 0)).fit(TimeSeries(y[:500]), exog=X)

    def test_multiple_exog_columns(self):
        rng = np.random.default_rng(1)
        t = np.arange(800)
        x1 = ((t % 24) == 0).astype(float)
        x2 = ((t % 24) == 12).astype(float)
        y = 50 + 20 * x1 + 35 * x2 + rng.normal(0, 1, 800)
        fit = Sarimax((1, 0, 0)).fit(TimeSeries(y), exog=np.column_stack([x1, x2]))
        assert fit.beta[0] == pytest.approx(20.0, abs=3.0)
        assert fit.beta[1] == pytest.approx(35.0, abs=3.0)


class TestFourier:
    def test_multiseasonal_fourier_beats_plain(self, multiseasonal_series):
        train, test = multiseasonal_series.split(len(multiseasonal_series) - 48)
        plain = Arima((1, 1, 1), seasonal=(1, 1, 1, 24)).fit(train).forecast(48)
        fourier = (
            Sarimax(
                (1, 1, 1),
                seasonal=(1, 1, 1, 24),
                fourier_periods=[168],
                fourier_orders=[2],
            )
            .fit(train)
            .forecast(48)
        )
        assert rmse(test, fourier.mean) <= rmse(test, plain.mean) * 1.1

    def test_fourier_only_model(self, multiseasonal_series):
        train, test = multiseasonal_series.split(len(multiseasonal_series) - 24)
        fit = Sarimax(
            (1, 0, 0), fourier_periods=[24, 168], fourier_orders=[2, 1]
        ).fit(train)
        fc = fit.forecast(24)
        assert rmse(test, fc.mean) < 4.0

    def test_fourier_config_validated(self):
        with pytest.raises(ModelError):
            Sarimax((1, 0, 0), fourier_periods=[24], fourier_orders=[1, 2])


class TestLabels:
    def test_plain(self):
        y, __ = shocked_seasonal()
        fit = Sarimax((1, 0, 1), seasonal=(1, 1, 1, 24)).fit(TimeSeries(y[:400]))
        assert fit.label() == "SARIMAX (1,0,1)(1,1,1,24)"

    def test_fft_exogenous(self):
        y, shock = shocked_seasonal()
        fit = Sarimax(
            (1, 0, 1),
            seasonal=(1, 1, 1, 24),
            fourier_periods=[168],
            fourier_orders=[1],
        ).fit(TimeSeries(y[:600]), exog=shock[:600])
        assert fit.label() == "SARIMAX FFT Exogenous (1,0,1)(1,1,1,24)"

    def test_custom_label(self):
        y, __ = shocked_seasonal()
        fit = Sarimax((1, 0, 0), label="MyModel").fit(TimeSeries(y[:300]))
        assert fit.label().startswith("MyModel")


class TestGls:
    def test_gls_improves_or_matches_ols(self):
        # Strongly autocorrelated errors: GLS beta should be at least as
        # close to truth as the plain-OLS first pass.
        rng = np.random.default_rng(2)
        n = 1000
        t = np.arange(n)
        x = ((t % 24) == 0).astype(float)
        u = np.zeros(n)
        for i in range(1, n):
            u[i] = 0.9 * u[i - 1] + rng.normal()
        y = 30.0 * x + u
        fit0 = Sarimax((1, 0, 0), gls_iterations=0).fit(TimeSeries(y), exog=x)
        fit2 = Sarimax((1, 0, 0), gls_iterations=2).fit(TimeSeries(y), exog=x)
        assert abs(fit2.beta[0] - 30.0) <= abs(fit0.beta[0] - 30.0) + 0.5

    def test_gls_iterations_validated(self):
        with pytest.raises(ModelError):
            Sarimax((1, 0, 0), gls_iterations=-1)


class TestRolls:
    """``advance`` on SARIMAX fits rolls on the regression-adjusted series."""

    @staticmethod
    def _weekly(n, seed=4):
        rng = np.random.default_rng(seed)
        t = np.arange(n)
        return (
            60.0
            + 8.0 * np.sin(2 * np.pi * t / 24)
            + 6.0 * np.sin(2 * np.pi * t / 168)
            + rng.normal(0.0, 1.0, n)
        )

    def test_fourier_innovations_are_one_step_errors(self):
        from repro.stream.drift import CusumDetector

        y = self._weekly(1008 + 48)
        model = Sarimax(
            (1, 0, 1), seasonal=(0, 1, 1, 24), fourier_periods=[168], fourier_orders=[2]
        ).fit(TimeSeries(y[:1008]))
        sigma = np.sqrt(model.sigma2)
        detector = CusumDetector()
        tripped = False
        for t in range(1008, 1008 + 48):
            error = y[t] - model.forecast(1).mean.values[0]
            model, innovations = model.advance(y[t : t + 1])
            assert innovations[0] == pytest.approx(error, abs=1e-9)
            tripped = detector.update_many(innovations / sigma) or tripped
        # The fit describes these 48 hours, so the drift check stays quiet.
        assert not tripped
        assert len(model.train) == 1008 + 48

    def test_exog_roll_extends_the_regressor_block(self):
        # A fit with shock regressors, rolled by 2 hours with their rows,
        # forecasts like the same coefficients on the extended series.
        import dataclasses

        rng = np.random.default_rng(8)
        y, __ = shocked_seasonal(1020)
        shock = (rng.random(1020) < 0.05).astype(float)[:, None]
        y = y + 25.0 * shock[:, 0]
        fit = Sarimax((1, 0, 0), seasonal=(0, 1, 1, 24)).fit(
            TimeSeries(y[:1008]), exog=shock[:1008]
        )
        rolled, innovations = fit.advance(y[1008:1010], exog=shock[1008:1010])
        assert innovations.shape == (2,)
        assert rolled._train_exog.shape == (1010, 1)
        assert np.array_equal(rolled._train_exog, shock[:1010])
        forecast = rolled.forecast(4, exog_future=shock[1010:1014])
        rebuilt = dataclasses.replace(fit, train=rolled.train)
        rebuilt._train_exog = shock[:1010]
        expected = rebuilt.forecast(4, exog_future=shock[1010:1014])
        assert np.allclose(forecast.mean.values, expected.mean.values, rtol=0, atol=1e-9)
        assert np.array_equal(forecast.upper.values - forecast.mean.values,
                              expected.upper.values - expected.mean.values)
        # The first innovation is the one-step error of the served forecast.
        one_step = fit.forecast(1, exog_future=shock[1008:1009]).mean.values[0]
        assert innovations[0] == pytest.approx(y[1008] - one_step, abs=1e-9)

    def test_exog_roll_requires_the_new_rows(self):
        y, __ = shocked_seasonal(1010)
        fit = Sarimax((1, 0, 0), seasonal=(0, 1, 1, 24)).fit(
            TimeSeries(y[:1008]), exog=(np.arange(1008) % 7 == 0).astype(float)
        )
        with pytest.raises(ModelError, match="next 2 steps"):
            fit.advance(y[1008:1010])
        with pytest.raises(DataError):
            fit.advance(y[1008:1010], exog=np.zeros((3, 1)))
        plain = Sarimax((1, 0, 0), seasonal=(0, 1, 1, 24)).fit(TimeSeries(y[:1008]))
        with pytest.raises(ModelError):
            plain.advance(y[1008:1010], exog=np.ones((2, 1)))

    def test_train_exog_is_not_a_field(self):
        import dataclasses

        from repro.models.sarimax import FittedSarimax

        assert "_train_exog" not in {f.name for f in dataclasses.fields(FittedSarimax)}
        y, __ = shocked_seasonal(1008)
        fit = Sarimax((1, 0, 0), seasonal=(0, 1, 1, 24)).fit(
            TimeSeries(y), exog=(np.arange(1008) % 7 == 0).astype(float)
        )
        assert fit._train_exog.shape == (1008, 1)
        assert "_train_exog" not in repr(fit)
