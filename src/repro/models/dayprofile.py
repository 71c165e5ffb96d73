"""Day-profile clustering models (Leverger et al., day-ahead forecasting).

The estate the paper plans for is dominated by 24h-seasonal host metrics:
most days are one of a handful of recurring *shapes* (quiet weekend,
business-hours plateau, nightly-batch spike). The day-profile family
exploits that directly instead of modelling hour-to-hour dynamics:

1. **Cluster days by shape** — the history is cut into complete
   ``period``-point days, each day is z-normalised (shape, not level,
   drives the distance) and the days are clustered with a seeded k-means
   whose initialisation and tie-breaks are fully deterministic
   (blake2b-derived RNG streams, never ``hash()``), so the same series
   and seed produce the same model in every process and under every
   ``PYTHONHASHSEED``.
2. **Forecast tomorrow's label** — a first-order Markov (multinomial)
   transition model over the day-label sequence, Laplace-smoothed so
   unseen transitions keep non-zero mass. Multi-day horizons step the
   argmax chain day by day; exact probability ties break by blake2b
   digest of ``(seed, from-label, candidate)`` rather than index order.
3. **Emit the centroid profile** — the predicted cluster's *raw* (not
   z-space) centroid is the day-ahead point forecast; bands come from the
   empirical per-slot spread of the cluster's member days, widened by
   ``sqrt(days-ahead)`` for multi-day horizons.

The family implements the standard :class:`~repro.models.base.ForecastModel`
protocol, so it races inside ``evaluate_grid``/``RacingPlan`` like any
SARIMAX candidate, is cacheable by the estate ``SelectionCache``, and
serves on the stream path: :meth:`FittedDayProfile.advance` rolls the
state through closed windows without refitting (centroids and transition
matrix stay frozen; new complete days are labelled by nearest centroid),
and :func:`advance_cohort` / :func:`forecast_cohort_arrays` batch
same-spec cohorts into single vectorised gathers for the scheduler's
cohort dispatch; ``advance`` and ``forecast`` are their one-row cases.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.stats import band_z
from ..core.timeseries import TimeSeries
from ..exceptions import ModelError
from .base import FittedModel, Forecast, ForecastModel, check_series

__all__ = [
    "DayProfile",
    "DayProfileSpec",
    "FittedDayProfile",
    "advance_cohort",
    "forecast_cohort_arrays",
]

#: Numerical floor for z-normalisation of a flat (zero-variance) day.
_FLAT_EPS = 1e-9

#: Lloyd-iteration budget; assignments stabilise far earlier in practice.
_KMEANS_MAXITER = 50


@dataclass(frozen=True)
class DayProfileSpec:
    """Identity of a day-profile model: what the scheduler cohorts on."""

    period: int
    n_clusters: int
    seed: int


def _digest_u64(*parts) -> int:
    """Deterministic 64-bit digest of a tuple — the only tie-break oracle.

    blake2b over the repr keeps ordering independent of ``PYTHONHASHSEED``
    and identical across processes and platforms.
    """
    h = hashlib.blake2b(repr(parts).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def _znorm(days: np.ndarray) -> np.ndarray:
    """Z-normalise each row (day); flat days become all-zero rows."""
    mu = days.mean(axis=1, keepdims=True)
    sd = days.std(axis=1, keepdims=True)
    return (days - mu) / np.maximum(sd, _FLAT_EPS)


def _kmeans(z: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means over z-normalised day rows → (labels, centroids).

    Initialisation is k-means++ driven by a blake2b-derived generator;
    assignment ties resolve to the lowest cluster index (``argmin``), and
    an emptied cluster deterministically adopts the point farthest from
    its current centroid. Final labels are canonicalised by first
    appearance so cluster numbering is a pure function of the data.
    """
    n = z.shape[0]
    rng = np.random.default_rng(_digest_u64("dayprofile-kmeans", seed, n, k))
    centroids = np.empty((k, z.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = z[first]
    d2 = ((z - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # All remaining points coincide with a chosen centroid.
            pick = int(rng.integers(n))
        else:
            pick = int(np.searchsorted(np.cumsum(d2 / total), rng.random()))
            pick = min(pick, n - 1)
        centroids[j] = z[pick]
        d2 = np.minimum(d2, ((z - centroids[j]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(_KMEANS_MAXITER):
        dist = ((z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist.argmin(axis=1)
        for c in range(k):
            members = new_labels == c
            if members.any():
                centroids[c] = z[members].mean(axis=0)
            else:
                # Deterministic rescue: the globally worst-fit point.
                worst = int(dist.min(axis=1).argmax())
                centroids[c] = z[worst]
                new_labels[worst] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

    # Canonical numbering: clusters in order of first appearance.
    remap = -np.ones(k, dtype=np.int64)
    nxt = 0
    for lab in labels:
        if remap[lab] < 0:
            remap[lab] = nxt
            nxt += 1
    for c in range(k):  # clusters that lost every point keep a slot
        if remap[c] < 0:
            remap[c] = nxt
            nxt += 1
    order = np.argsort(remap)
    return remap[labels], centroids[order]


def _transition_matrix(labels: np.ndarray, k: int, smoothing: float) -> np.ndarray:
    """Laplace-smoothed first-order multinomial transition matrix."""
    counts = np.full((k, k), smoothing, dtype=float)
    np.add.at(counts, (labels[:-1], labels[1:]), 1.0)
    return counts / counts.sum(axis=1, keepdims=True)


def _step_label(transition: np.ndarray, label: int, seed: int) -> int:
    """Most likely next label; exact ties break by blake2b digest."""
    row = transition[label]
    best = float(row.max())
    ties = np.flatnonzero(row >= best)
    if ties.size == 1:
        return int(ties[0])
    return int(min(ties, key=lambda c: _digest_u64("dayprofile-tie", seed, label, int(c))))


def _next_labels(
    transitions: np.ndarray, rows: np.ndarray, labels: np.ndarray, seed: int
) -> np.ndarray:
    """:func:`_step_label` for many (row, label) pairs at once.

    ``transitions`` is a cohort's stacked ``(B, k, k)`` matrix; entry
    ``j`` steps ``labels[j]`` through ``transitions[rows[j]]``. One
    gather takes every entry's transition row: a row whose maximum is
    unique steps to its argmax, and only a row whose maximum is tied
    (or not finite) goes through ``_step_label``'s blake2b tie-break.
    That tie-break depends only on the from-label and the set of tied
    labels (the cohort shares its seed), so each distinct pair is
    resolved once per call.
    """
    gathered = transitions[rows, labels]
    best = gathered.max(axis=1)
    nxt = gathered.argmax(axis=1)
    at_best = gathered >= best[:, None]
    unsettled = np.count_nonzero(at_best, axis=1) != 1
    if unsettled.any():
        tie_sets = (at_best << np.arange(at_best.shape[1])).sum(axis=1)
        memo: dict[tuple[int, int], int] = {}
        for j in np.flatnonzero(unsettled).tolist():
            pair = (int(labels[j]), int(tie_sets[j]))
            if pair not in memo:
                memo[pair] = _step_label(transitions[rows[j]], pair[0], seed)
            nxt[j] = memo[pair]
    return nxt


@dataclass
class FittedDayProfile(FittedModel):
    """A fitted day-profile model: shape clusters + label transition chain.

    ``centroids``/``band_stds`` are per-cluster raw-space ``(k, period)``
    matrices; ``labels`` is the complete-day label sequence, ``phase``
    how many observations the trailing partial day holds. ``advance``
    keeps centroids and the transition matrix frozen (like the smoothing
    family keeps its parameters) and only rolls the label state.
    """

    spec: DayProfileSpec = field(default=None)
    centroids: np.ndarray = field(default=None, repr=False)
    z_centroids: np.ndarray = field(default=None, repr=False)
    band_stds: np.ndarray = field(default=None, repr=False)
    transition: np.ndarray = field(default=None, repr=False)
    labels: np.ndarray = field(default=None, repr=False)
    phase: int = 0

    def label(self) -> str:
        return f"DayProfile(k={self.spec.n_clusters}, m={self.spec.period})"

    def forecast(self, horizon: int, alpha: float = 0.05) -> Forecast:
        """The one-row case of :func:`forecast_cohort_arrays`."""
        mean, std = _cohort_mean_std([self], horizon)
        return self.make_forecast(mean[0], std[0], alpha)

    def advance(self, values: np.ndarray) -> tuple["FittedDayProfile", np.ndarray]:
        """Roll the label state through new observations without refitting.

        New complete days are labelled by nearest centroid in z-space and
        appended to the label sequence; centroids, bands and the
        transition matrix stay frozen at their fitted values. Returns
        ``(rolled model, one-step innovations)`` — the innovations are
        observation-space forecast errors against the pre-roll chain,
        which is what drift detectors standardise against.
        """
        rolled, innovations = advance_cohort([self], np.asarray(values, dtype=float)[None, :])
        return rolled[0], innovations[0]


class DayProfile(ForecastModel):
    """Unfitted day-profile spec: cluster count, day length and seed."""

    def __init__(self, n_clusters: int = 3, period: int | None = None, seed: int = 0) -> None:
        if n_clusters < 2:
            raise ModelError(f"n_clusters must be >= 2, got {n_clusters}")
        if period is not None and period < 2:
            raise ModelError(f"period must be >= 2, got {period}")
        self.n_clusters = int(n_clusters)
        self.period = int(period) if period is not None else None
        self.seed = int(seed)
        self.smoothing = 0.5

    def _period_for(self, series: TimeSeries) -> int:
        if self.period is not None:
            return self.period
        return series.frequency.default_period

    @property
    def min_observations(self) -> int:
        # At least three complete days: two to transition between, one to
        # stand on. Callers with a known period get the exact bound.
        m = self.period if self.period is not None else 2
        return 3 * m

    def fit(self, series: TimeSeries, **kwargs) -> FittedDayProfile:
        if kwargs:
            raise ModelError(f"unexpected fit options: {sorted(kwargs)}")
        m = self._period_for(series)
        y = check_series(series, 3 * m)
        n_days = y.size // m
        if n_days < 3:
            raise ModelError(
                f"day-profile needs >= 3 complete days of {m} points, got {n_days}"
            )
        days = y[: n_days * m].reshape(n_days, m)
        k = min(self.n_clusters, n_days)
        z = _znorm(days)
        labels, z_centroids = _kmeans(z, k, self.seed)

        centroids = np.empty((k, m))
        band_stds = np.empty((k, m))
        global_std = float(days.std()) if days.size else 1.0
        for c in range(k):
            members = days[labels == c]
            if len(members) == 0:  # rescued-then-emptied cluster
                centroids[c] = days.mean(axis=0)
                band_stds[c] = max(global_std, _FLAT_EPS)
                continue
            centroids[c] = members.mean(axis=0)
            spread = members.std(axis=0) if len(members) > 1 else np.zeros(m)
            band_stds[c] = np.maximum(spread, max(0.05 * global_std, _FLAT_EPS))

        transition = _transition_matrix(labels, k, self.smoothing)
        spec = DayProfileSpec(period=m, n_clusters=k, seed=self.seed)

        # In-sample one-day-ahead residuals: each day d >= 1 predicted as
        # the centroid of the label the chain forecasts from day d-1.
        seed = self.seed
        predicted = np.stack(
            [
                centroids[_step_label(transition, int(labels[d - 1]), seed)]
                for d in range(1, n_days)
            ]
        )
        residuals = (days[1:] - predicted).ravel()
        dof = max(1, residuals.size - k)
        sigma2 = float(residuals @ residuals) / dof
        n_params = k * m + k * (k - 1)  # centroids + free transition mass

        return FittedDayProfile(
            train=series,
            residuals=residuals,
            sigma2=sigma2,
            n_params=n_params,
            spec=spec,
            centroids=centroids,
            z_centroids=z_centroids,
            band_stds=band_stds,
            transition=transition,
            labels=labels,
            phase=int(y.size - n_days * m),
        )


# ---------------------------------------------------------------------------
# Cohort batch paths (the scheduler's O(1)-per-tick serving surface)
# ---------------------------------------------------------------------------
def _cohort_spec(models: list[FittedDayProfile]) -> DayProfileSpec:
    if not models:
        raise ModelError("empty day-profile cohort")
    spec = models[0].spec
    for model in models[1:]:
        if model.spec != spec:
            raise ModelError(
                f"cohort mixes day-profile specs: {spec} vs {model.spec}"
            )
    return spec


def advance_cohort(
    models: list[FittedDayProfile], values: np.ndarray
) -> tuple[list[FittedDayProfile], np.ndarray]:
    """Roll a same-spec cohort through new observations in one pass.

    ``values`` is ``(B, n_new)`` — row ``i`` continues ``models[i]``'s
    training series. Each innovation is the one-step error against the
    forecast the model served *at that observation's time*: whenever a
    day completes mid-batch it is labelled by nearest z-space centroid
    and the chain base moves, so rolling one observation at a time and
    rolling the whole block produce identical states and innovations
    (chunking invariance, matching the smoothing family's contract).

    The cohort is worked as a block: only rows that complete a day
    z-normalise and label it (one distance pass over every completed
    day), every position's next label comes from one gather of the
    stacked ``(B, k, k)`` transitions (:func:`_next_labels`), and the
    served values from one gather of the stacked ``(B, k, m)``
    centroids.
    """
    values = np.ascontiguousarray(values, dtype=float)
    if values.ndim != 2:
        raise ModelError(f"cohort values must be (batch, n_new), got {values.shape}")
    if values.shape[0] != len(models):
        raise ModelError(
            f"cohort size mismatch: {len(models)} models, {values.shape[0]} value rows"
        )
    n_new = values.shape[1]
    if n_new == 0:
        raise ModelError("cannot advance through zero observations")
    if not np.isfinite(values).all():
        raise ModelError("cannot roll day-profile state through non-finite values")
    spec = _cohort_spec(models)
    m = spec.period
    B = len(models)
    rows = np.arange(B)

    phases = np.array([model.phase for model in models], dtype=np.int64)
    n_closed = ((phases + n_new) // m).tolist()
    # Chain base per row: its last label, then each day the roll completes.
    bases = np.empty((B, 1 + max(n_closed)), dtype=np.int64)
    bases[:, 0] = [int(model.labels[-1]) for model in models]
    day_labels: list[np.ndarray | None] = [None] * B
    completing = [i for i in range(B) if n_closed[i]]
    if completing:
        days = []
        for i in completing:
            model = models[i]
            tail = np.concatenate(
                [model.train.values[len(model.train) - model.phase :], values[i]]
            )
            days.append(tail[: n_closed[i] * m].reshape(n_closed[i], m))
        owner = np.repeat(np.arange(len(completing)), [n_closed[i] for i in completing])
        z_centroids = np.stack([models[i].z_centroids for i in completing])
        z = _znorm(np.concatenate(days))
        dist = ((z[:, None, :] - z_centroids[owner]) ** 2).sum(axis=2)
        labelled = dist.argmin(axis=1)
        at = 0
        for i in completing:
            day_labels[i] = labelled[at : at + n_closed[i]]
            bases[i, 1 : 1 + n_closed[i]] = day_labels[i]
            at += n_closed[i]

    # One-step predictions: each observation is forecast one day-step
    # past the most recent *closed* day at its own position.
    offsets = phases[:, None] + np.arange(n_new)
    base = bases[rows[:, None], offsets // m]
    transitions = np.stack([model.transition for model in models])
    pred = _next_labels(
        transitions, np.repeat(rows, n_new), base.ravel(), spec.seed
    ).reshape(B, n_new)
    centroids = np.stack([model.centroids for model in models])
    innovations = values - centroids[rows[:, None], pred, offsets % m]

    out: list[FittedDayProfile] = []
    for i, model in enumerate(models):
        labels = model.labels
        if day_labels[i] is not None:
            labels = np.concatenate([labels, day_labels[i]])
        out.append(
            replace(
                model,
                train=replace(
                    model.train,
                    values=np.concatenate([model.train.values, values[i]]),
                ),
                residuals=np.concatenate([model.residuals, innovations[i]]),
                labels=labels,
                phase=int(phases[i]) + n_new - n_closed[i] * m,
            )
        )
    return out, innovations


def _cohort_mean_std(
    models: list[FittedDayProfile], horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``(B, horizon)`` forecast means and standard deviations.

    Each row steps its label chain one day at a time from its last
    complete day, the whole cohort per step (:func:`_next_labels`), then
    takes its means and band spreads from one gather of the stacked
    ``(B, k, m)`` centroids and band matrices; the spread widens with
    ``sqrt(days-ahead)``.
    """
    if horizon <= 0:
        raise ModelError(f"horizon must be positive, got {horizon}")
    spec = _cohort_spec(models)
    m = spec.period
    B = len(models)
    rows = np.arange(B)
    offsets = np.array([model.phase for model in models])[:, None] + np.arange(horizon)
    slots = offsets % m
    steps = offsets // m + 1  # days past the last complete day
    days_ahead = steps[:, -1]
    transitions = np.stack([model.transition for model in models])
    chain = np.empty((B, int(days_ahead.max())), dtype=np.int64)
    current = np.array([int(model.labels[-1]) for model in models], dtype=np.int64)
    for day in range(chain.shape[1]):
        # Rows whose horizon ends earlier stop stepping.
        live = rows[days_ahead > day]
        current[live] = _next_labels(transitions, live, current[live], spec.seed)
        chain[live, day] = current[live]
    labels = chain[rows[:, None], steps - 1]
    centroids = np.stack([model.centroids for model in models])
    band_stds = np.stack([model.band_stds for model in models])
    mean = centroids[rows[:, None], labels, slots]
    std = band_stds[rows[:, None], labels, slots] * np.sqrt(steps.astype(float))
    return mean, std


def forecast_cohort_arrays(
    models: list[FittedDayProfile], horizon: int, alpha: float = 0.05
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forecast a same-spec cohort as stacked ``(B, horizon)`` bands.

    Returns ``(mean, lower, upper)``; :meth:`FittedDayProfile.forecast`
    is the one-row case, so row ``i`` equals ``models[i].forecast(horizon,
    alpha)``'s band values, without building per-key Forecast/TimeSeries
    objects. The caller owns timestamps (each row starts one step after
    its model's training end).
    """
    mean, std = _cohort_mean_std(models, horizon)
    z = band_z(alpha)
    return mean, mean - z * std, mean + z * std
