"""L-BFGS-B as a resumable generator, so many bounded fits can step together.

``scipy.optimize.minimize(fun, x0, method="L-BFGS-B", bounds=...)`` owns
its loop: it calls ``fun`` once per point, so N independent fits cost N
separate sequences of objective calls. The smoothing family's objective
is a recursion that :func:`repro.models.kernels.ets_recursion_batch` can
run for many parameter vectors at once, but only if the fits hand their
points over instead of evaluating them.

:func:`minimize_steps` runs the same optimiser through its
reverse-communication interface (``scipy.optimize._lbfgsb.setulb``, the
loop ``_minimize_lbfgsb`` runs) as a generator. Each time the optimiser
needs a function value and gradient, the generator yields the point and
its forward-difference points in one ``(n + 1, n)`` block and waits for
their objective values. ``minimize`` computes the gradient the same way
when no ``jac`` is given, and the generator reproduces that step by step:

* ``ScalarFunction``'s memo: the value and gradient at the start point
  are computed up front, and a request for the point last evaluated
  reuses them;
* ``approx_derivative``'s absolute 2-point step (``eps = 1e-8``), with its
  zero-step fallback and its bound rule: a step that would leave the box
  is flipped, or shrunk to the distance to the far bound;
* the gradient quotient ``(f(x + h e_i) - f(x)) / ((x_i + h_i) - x_i)``;
* the iteration and evaluation limits, checked at each new iterate.

So a caller that answers with the values ``fun`` would return gets, bit
for bit, the ``x`` and ``fun`` that ``minimize`` returns. ``setulb`` is
private scipy API whose signature differs between scipy releases, so
:func:`matches_minimize` runs one fixed problem both ways, and callers
use ``minimize`` for the whole process when it finds a difference.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

import numpy as np
from scipy import optimize

try:  # private API: absent or different on other scipy releases
    from scipy.optimize._lbfgsb import setulb as _setulb
except Exception:  # pragma: no cover - depends on the installed scipy
    _setulb = None

__all__ = ["minimize_steps", "drive", "matches_minimize"]

# minimize's L-BFGS-B defaults (``_minimize_lbfgsb``'s signature).
_MAXCOR = 10
_FTOL = 2.2204460492503131e-09
_GTOL = 1e-5
_EPS = 1e-8
_MAXFUN = 15000
_MAXLS = 20

# setulb task codes (``status_messages`` in scipy's _lbfgsb_py).
_FG = 3
_NEW_X = 1
_STOP = 5
_MAXITER_REACHED = 504
_MAXFUN_REACHED = 502

#: ``(n + 1, n)`` points out, their ``n + 1`` objective values in.
Steps = Generator[np.ndarray, "list[float]", tuple[np.ndarray, float]]


def _two_point_steps(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``approx_derivative``'s forward steps at ``x`` for ``abs_step=eps``."""
    sign = (x >= 0).astype(float) * 2 - 1
    relative = np.finfo(np.float64).eps ** 0.5 * sign * np.maximum(1.0, np.abs(x))
    h = np.where(((x + _EPS) - x) == 0, relative, _EPS)
    lower_dist = x - lower
    upper_dist = upper - x
    ahead = x + h
    violated = (ahead < lower) | (ahead > upper)
    fitting = np.abs(h) <= np.maximum(lower_dist, upper_dist)
    h[violated & fitting] *= -1
    forward = (upper_dist >= lower_dist) & ~fitting
    h[forward] = upper_dist[forward]
    backward = (upper_dist < lower_dist) & ~fitting
    h[backward] = -lower_dist[backward]
    return h


def _value_and_gradient(x: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Yield ``x`` and its difference points; return ``(f(x), gradient)``."""
    n = x.size
    h = _two_point_steps(x, lower, upper)
    points = np.repeat(x[None, :], n + 1, axis=0)
    points[np.arange(1, n + 1), np.arange(n)] = x + h
    values = yield points
    f0 = values[0]
    gradient = (np.asarray(values[1:], dtype=float) - f0) / ((x + h) - x)
    return f0, gradient


def minimize_steps(
    x0: np.ndarray, lower: np.ndarray, upper: np.ndarray, maxiter: int
) -> Steps:
    """``minimize(fun, x0, method="L-BFGS-B", ...)`` as a generator.

    Every bound must be finite. Yields ``(n + 1, n)`` blocks of points,
    the point itself first, and expects the list of their objective
    values back through ``send``. Returns ``(x, fun)`` as ``minimize``'s
    result carries them (``fun`` is the last value the optimiser saw).
    """
    n = x0.size
    lower = np.array(lower, dtype=np.float64)
    upper = np.array(upper, dtype=np.float64)
    x = np.clip(np.asarray(x0, dtype=np.float64), lower, upper)
    memo_x = x.copy()
    memo_f, memo_g = yield from _value_and_gradient(memo_x, lower, upper)
    nfev = n + 1

    nbd = np.full(n, 2, dtype=np.int32)  # bounded on both sides
    f = np.array(0.0, dtype=np.float64)
    g = np.zeros(n, dtype=np.float64)
    m = _MAXCOR
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m, dtype=np.float64)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29, dtype=np.float64)
    factr = _FTOL / np.finfo(float).eps
    iterations = 0
    while True:
        g = g.astype(np.float64)
        _setulb(
            m, x, lower, upper, nbd, f, g, factr, _GTOL, wa, iwa, task,
            lsave, isave, dsave, _MAXLS, ln_task,
        )
        if task[0] == _FG:
            if not np.array_equal(x, memo_x):
                memo_x = x.copy()
                memo_f, memo_g = yield from _value_and_gradient(memo_x, lower, upper)
                nfev += n + 1
            f, g = memo_f, memo_g
        elif task[0] == _NEW_X:
            iterations += 1
            if iterations >= maxiter:
                task[0], task[1] = _STOP, _MAXITER_REACHED
            elif nfev > _MAXFUN:
                task[0], task[1] = _STOP, _MAXFUN_REACHED
        else:
            return x, f


def drive(steps: Steps, objective: Callable[[np.ndarray], float]) -> tuple[np.ndarray, float]:
    """Run one generator to its end, answering each point with ``objective``."""
    try:
        block = next(steps)
        while True:
            block = steps.send([objective(point) for point in block])
    except StopIteration as stop:
        return stop.value


def _check_objective(x: np.ndarray) -> float:
    # Curved, coupled, with its unconstrained optimum (0.9, 1.3) outside
    # the box: the fit ends on the upper bound, where the difference step
    # has to flip.
    a, b = float(x[0]), float(x[1])
    return (a - 0.9) ** 4 + 3.0 * (b - 1.3) ** 2 + 0.5 * a * b + np.sin(3.0 * a) ** 2


def matches_minimize() -> bool:
    """Whether :func:`minimize_steps` reproduces ``minimize`` on this scipy.

    Runs one fixed two-parameter problem whose optimum sits on a bound
    both ways and compares ``x`` and ``fun`` bit for bit. Any error (a
    missing or re-shaped ``setulb``) counts as a difference.
    """
    if _setulb is None:
        return False
    x0 = np.array([0.3, 0.1])
    bounds = [(1e-4, 0.9999), (1e-4, 0.9999)]
    try:
        oracle = optimize.minimize(
            _check_objective, x0, method="L-BFGS-B", bounds=bounds, options={"maxiter": 200}
        )
        x, fun = drive(
            minimize_steps(x0, *np.array(bounds).T, maxiter=200), _check_objective
        )
    except Exception:
        return False
    return bool(np.array_equal(x, oracle.x) and float(fun) == float(oracle.fun))
