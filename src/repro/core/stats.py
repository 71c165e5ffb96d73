"""Autocorrelation analysis: ACF, PACF, Ljung–Box and correlograms.

Section 4.1 of the paper pre-populates SARIMA ``(p, q)`` candidates by
inspecting the autocorrelation function (ACF) and partial autocorrelation
function (PACF) of the metric series — the correlogram of its Figure 1(a).
The shaded confidence band in that figure is the ±1.96/√n white-noise band;
lags whose ACF/PACF pokes outside the band suggest AR/MA orders worth
fitting (see :mod:`repro.selection.correlogram`).

The PACF is computed with the Durbin–Levinson recursion; the Ljung–Box
portmanteau test is provided for residual whiteness checks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy import stats as _scipy_stats

from ..exceptions import DataError
from .timeseries import TimeSeries

__all__ = [
    "acf",
    "pacf",
    "ljung_box",
    "LjungBoxResult",
    "Correlogram",
    "correlogram",
    "band_z",
]


@functools.lru_cache(maxsize=64)
def band_z(alpha: float) -> float:
    """The two-sided Gaussian band multiplier ``z_{1-alpha/2}``.

    Bit-identical to ``scipy.stats.norm.ppf(1 - alpha / 2)``, which
    computes ``ndtri(q) * 1.0 + 0.0`` behind a generic-distribution
    wrapper many times costlier than the special function itself. Every
    forecast band, breach grade and correlogram confidence line asks for
    it, so the handful of distinct ``alpha`` values are memoised.
    """
    return float(special.ndtri(1.0 - alpha / 2.0))


def _values(series) -> np.ndarray:
    x = series.values if isinstance(series, TimeSeries) else np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise DataError("expected a one-dimensional series")
    if not np.isfinite(x).all():
        raise DataError("series contains NaN/inf; interpolate gaps first")
    return x


def acf(series, nlags: int = 30) -> np.ndarray:
    """Sample autocorrelation function at lags ``0..nlags``.

    Uses the standard biased estimator (denominator ``n``), which guarantees
    a positive-semidefinite autocorrelation sequence — the property the
    Durbin–Levinson recursion in :func:`pacf` relies on.
    """
    x = _values(series)
    n = x.size
    if n < 2:
        raise DataError("need at least two observations for an ACF")
    nlags = int(nlags)
    if nlags < 1:
        raise DataError("nlags must be >= 1")
    nlags = min(nlags, n - 1)
    centred = x - x.mean()
    denom = float(centred @ centred)
    if denom == 0.0:
        # A constant series is perfectly "predictable"; define its ACF as
        # 1 at lag 0 and 0 elsewhere to keep downstream selection sane.
        out = np.zeros(nlags + 1)
        out[0] = 1.0
        return out
    full = np.correlate(centred, centred, mode="full")[n - 1 :]
    return full[: nlags + 1] / denom


def pacf(series, nlags: int = 30) -> np.ndarray:
    """Partial autocorrelation at lags ``0..nlags`` via Durbin–Levinson.

    Lag 0 is defined as 1. The recursion solves the Yule–Walker equations
    incrementally, yielding the last coefficient of the best linear
    predictor of order ``k`` at each lag ``k``.
    """
    rho = acf(series, nlags=nlags)
    nlags = rho.size - 1
    out = np.zeros(nlags + 1)
    out[0] = 1.0
    if nlags == 0:
        return out
    phi_prev = np.zeros(nlags + 1)
    phi_curr = np.zeros(nlags + 1)
    phi_prev[1] = rho[1]
    out[1] = rho[1]
    var = 1.0 - rho[1] ** 2
    for k in range(2, nlags + 1):
        if var <= 1e-14:
            # Process is (numerically) perfectly predictable from shorter
            # lags; remaining partial correlations are zero.
            break
        num = rho[k] - float(phi_prev[1:k] @ rho[k - 1 : 0 : -1])
        phi_kk = num / var
        phi_kk = float(np.clip(phi_kk, -1.0, 1.0))
        phi_curr[1:k] = phi_prev[1:k] - phi_kk * phi_prev[k - 1 : 0 : -1]
        phi_curr[k] = phi_kk
        out[k] = phi_kk
        var *= 1.0 - phi_kk**2
        phi_prev, phi_curr = phi_curr, phi_prev
    return out


@dataclass(frozen=True)
class LjungBoxResult:
    """Outcome of a Ljung–Box portmanteau test."""

    statistic: float
    p_value: float
    lags: int
    df: int

    def is_white_noise(self, alpha: float = 0.05) -> bool:
        """True when the null of no autocorrelation is *not* rejected."""
        return self.p_value > alpha


def ljung_box(series, lags: int = 10, n_fitted_params: int = 0) -> LjungBoxResult:
    """Ljung–Box test for autocorrelation in (residual) series.

    Parameters
    ----------
    lags:
        Number of lags pooled by the statistic.
    n_fitted_params:
        Degrees of freedom consumed by a fitted ARMA model whose residuals
        are being tested; subtracted from the chi-square df.
    """
    x = _values(series)
    n = x.size
    lags = min(int(lags), n - 1)
    if lags < 1:
        raise DataError("need at least one usable lag for Ljung-Box")
    rho = acf(x, nlags=lags)[1:]
    k = np.arange(1, lags + 1)
    q_stat = float(n * (n + 2) * np.sum(rho**2 / (n - k)))
    df = max(1, lags - n_fitted_params)
    p_value = float(_scipy_stats.chi2.sf(q_stat, df))
    return LjungBoxResult(statistic=q_stat, p_value=p_value, lags=lags, df=df)


@dataclass(frozen=True)
class Correlogram:
    """ACF/PACF values plus the white-noise confidence band (Figure 1(a)).

    Attributes
    ----------
    acf_values / pacf_values:
        Autocorrelations at lags ``0..nlags``.
    confidence:
        Half-width of the ±``z``/√n band; bars beyond it are "significant".
    """

    acf_values: np.ndarray
    pacf_values: np.ndarray
    confidence: float
    nlags: int

    def significant_acf_lags(self) -> list[int]:
        """Lags (≥ 1) whose ACF exceeds the confidence band."""
        return [
            lag
            for lag in range(1, self.nlags + 1)
            if abs(self.acf_values[lag]) > self.confidence
        ]

    def significant_pacf_lags(self) -> list[int]:
        """Lags (≥ 1) whose PACF exceeds the confidence band."""
        return [
            lag
            for lag in range(1, self.nlags + 1)
            if abs(self.pacf_values[lag]) > self.confidence
        ]


def correlogram(series, nlags: int = 30, alpha: float = 0.05) -> Correlogram:
    """Compute the Figure 1(a)-style correlogram for a series.

    The paper measures "data over 30 lags" when constructing its candidate
    model grids, hence the default.
    """
    x = _values(series)
    acf_vals = acf(x, nlags=nlags)
    pacf_vals = pacf(x, nlags=nlags)
    z = band_z(alpha)
    return Correlogram(
        acf_values=acf_vals,
        pacf_values=pacf_vals,
        confidence=z / np.sqrt(x.size),
        nlags=acf_vals.size - 1,
    )
