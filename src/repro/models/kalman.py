"""Exact Gaussian likelihood for ARMA models via the Kalman filter.

The CSS objective used by :mod:`repro.models.arima` conditions on zero
initial values — fast and fine for order *selection*, but not the exact
likelihood. This module provides the state-space machinery for exact
maximum likelihood, the estimator R's ``arima`` refines its CSS starting
values with:

* :func:`arma_state_space` builds Harvey's representation of an
  ARMA(p, q) process: state dimension ``m = max(p, q+1)``, transition in
  companion form, the MA coefficients entering through the selection
  vector ``R``;
* :func:`stationary_initialisation` solves the discrete Lyapunov equation
  for the exact stationary state covariance, so the filter starts from
  the process's unconditional distribution instead of zeros;
* :func:`kalman_loglike` runs the filter and returns the exact Gaussian
  log-likelihood with the innovation variance concentrated out;
* :func:`fit_arma_mle` wraps the above in an optimiser, warm-started from
  given (CSS) estimates.

The SARIMA estimator exposes this as ``Arima(..., method="mle")``: the
seasonal polynomials are expanded into the equivalent long-AR/long-MA
form first, so one ARMA state space covers the seasonal case too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg, optimize

from ..exceptions import ConvergenceError, ModelError
from . import kernels
from .polynomials import ar_poly, ma_poly

__all__ = [
    "arma_state_space",
    "stationary_initialisation",
    "kalman_loglike",
    "fit_arma_mle",
    "MleResult",
]


def arma_state_space(
    phi: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Harvey's state-space form of a zero-mean ARMA(p, q) process.

    Returns ``(T, R, Z)`` with state dimension ``m = max(p, q + 1)``::

        alpha_t = T alpha_{t-1} + R eta_t,   y_t = Z' alpha_t

    where ``eta_t`` is the scalar innovation. ``T`` carries the AR
    coefficients in its first column plus an upper shift; ``R`` is
    ``[1, theta_1, …, theta_{m-1}]``.
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    p, q = phi.size, theta.size
    m = max(p, q + 1)
    T = np.zeros((m, m))
    T[:p, 0] = phi
    T[:-1, 1:] = np.eye(m - 1)
    R = np.zeros(m)
    R[0] = 1.0
    R[1 : q + 1] = theta
    Z = np.zeros(m)
    Z[0] = 1.0
    return T, R, Z


def stationary_initialisation(T: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Unconditional state covariance: solve ``P = T P T' + R R'``.

    Only exists for a stationary transition (spectral radius < 1); the
    caller enforces stationarity before getting here.
    """
    RRt = np.outer(R, R)
    try:
        P0 = linalg.solve_discrete_lyapunov(T, RRt)
    except (linalg.LinAlgError, ValueError) as exc:
        raise ModelError(f"stationary initialisation failed: {exc}") from exc
    # Symmetrise against numerical drift.
    return 0.5 * (P0 + P0.T)


def kalman_loglike(
    y: np.ndarray, phi: np.ndarray, theta: np.ndarray
) -> tuple[float, float]:
    """Exact concentrated Gaussian log-likelihood of an ARMA(p, q).

    Runs the Kalman filter with the innovation variance σ² concentrated
    out: the filter computes scaled innovations ``v_t`` and their scaled
    variances ``F_t`` with σ² = 1, then

        σ̂² = (1/n) Σ v_t² / F_t
        ll  = −(n/2)(log 2π + 1 + log σ̂²) − (1/2) Σ log F_t

    Returns ``(loglike, sigma2_hat)``.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 3:
        raise ModelError("need at least 3 observations for the likelihood")
    # Stationarity / invertibility guard (strict, matching CSS).
    from .polynomials import min_root_modulus

    if phi.size and min_root_modulus(ar_poly(phi)) <= 1.0:
        return -np.inf, np.nan
    if theta.size and min_root_modulus(ma_poly(theta)) <= 1.0:
        return -np.inf, np.nan

    T, R, __ = arma_state_space(phi, theta)
    P = stationary_initialisation(T, R)
    RRt = np.outer(R, R)

    # The per-timestep filter loop (innovation → update → predict) lives in
    # the compiled kernel; Z picks the first state component.
    sum_sq, sum_logF, ok = kernels.kalman_filter(y, T, RRt, P)
    if not ok:
        return -np.inf, np.nan

    sigma2 = sum_sq / n
    if sigma2 <= 0 or not np.isfinite(sigma2):
        return -np.inf, np.nan
    ll = -0.5 * (n * (np.log(2.0 * np.pi) + 1.0 + np.log(sigma2)) + sum_logF)
    return float(ll), float(sigma2)


@dataclass(frozen=True)
class MleResult:
    """Outcome of exact maximum-likelihood ARMA estimation."""

    phi: np.ndarray
    theta: np.ndarray
    sigma2: float
    loglike: float
    n_iterations: int
    converged: bool


def fit_arma_mle(
    y: np.ndarray,
    p: int,
    q: int,
    start_phi: np.ndarray | None = None,
    start_theta: np.ndarray | None = None,
    maxiter: int = 150,
) -> MleResult:
    """Exact MLE for a zero-mean ARMA(p, q) on (differenced) data.

    Warm-start from CSS estimates when available; falls back to small
    defaults otherwise. Demeaning is the caller's job (the SARIMA wrapper
    passes the centred, differenced series).
    """
    y = np.asarray(y, dtype=float)
    if p < 0 or q < 0:
        raise ModelError("orders must be non-negative")
    if p == 0 and q == 0:
        n = y.size
        sigma2 = float(y @ y) / max(n, 1)
        ll = -0.5 * n * (np.log(2 * np.pi) + 1.0 + np.log(max(sigma2, 1e-300)))
        return MleResult(
            phi=np.empty(0), theta=np.empty(0), sigma2=sigma2,
            loglike=float(ll), n_iterations=0, converged=True,
        )

    x0 = np.concatenate(
        [
            np.asarray(start_phi, dtype=float) if start_phi is not None else np.full(p, 0.1),
            np.asarray(start_theta, dtype=float) if start_theta is not None else np.full(q, 0.1),
        ]
    )
    if x0.size != p + q:
        raise ModelError("start values do not match the requested orders")

    def negll(x: np.ndarray) -> float:
        ll, __ = kalman_loglike(y, x[:p], x[p:])
        return 1e12 if not np.isfinite(ll) else -ll

    # Keep the warm start inside the stationary region.
    x = x0.copy()
    for __ in range(40):
        if np.isfinite(-negll(x)) and negll(x) < 1e12:
            break
        x *= 0.8
    result = optimize.minimize(
        negll, x, method="Nelder-Mead",
        options={"maxiter": maxiter * (p + q + 1), "fatol": 1e-8, "xatol": 1e-6},
    )
    ll, sigma2 = kalman_loglike(y, result.x[:p], result.x[p:])
    if not np.isfinite(ll):
        raise ConvergenceError("exact-MLE optimisation diverged")
    return MleResult(
        phi=result.x[:p].copy(),
        theta=result.x[p:].copy(),
        sigma2=sigma2,
        loglike=ll,
        n_iterations=int(result.nit),
        converged=bool(result.success),
    )
