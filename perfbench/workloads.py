"""The benchmark's workloads: inputs from a seed, set-up, feed and checks.

Every workload drives one :class:`~repro.stream.StreamRuntime` through
``ingest_batch`` in a closed loop: the next delivery is handed over only
after the previous call returned. Inputs (series, archetype fits, the
delivery order, churn's sqlite file) are generated from the seed before
any clock starts; the runtime sees only those inputs.

Polls are delivered one simulated hour at a time through
:func:`~repro.stream.runtime.mangle_delivery` (1200 s jitter, 2 %
duplicates). Keeping each hour's reordering and retries inside its own
delivery means no poll ever arrives behind a closed window, so the bus
refuses nothing and every hour closes exactly one window per key.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from repro.agent.agent import AgentSample
from repro.agent.repository import MetricsRepository
from repro.core import Frequency, TimeSeries
from repro.engine.executor import SerialExecutor
from repro.models import DayProfile, HoltWinters
from repro.models.arima import Arima
from repro.selection import AutoConfig
from repro.selection.auto import SelectionOutcome
from repro.service import EstatePlanner, SelectionCache
from repro.service.estate import WorkloadStatus
from repro.stream import StreamConfig, StreamRuntime
from repro.stream.runtime import mangle_delivery

HOUR = 3600.0
POLL_SECONDS = 900.0
POLLS_PER_HOUR = 4
JITTER_SECONDS = 1200.0
DUPLICATE_RATE = 0.02
#: Seeded history per key: the Table 1 hourly observation budget.
HISTORY_HOURS = 1008
PERIOD = 24


@dataclass
class Feed:
    """Delivery-ordered polls as compact columns.

    Kept as arrays rather than ``AgentSample`` objects so the inputs add
    little to the measured process's peak RSS; each delivery is built
    into samples just before its timed ``ingest_batch`` call.
    """

    names: list[tuple[str, str]]
    key: np.ndarray
    timestamp: np.ndarray
    value: np.ndarray
    #: Offset of each delivered hour's first poll; one entry per hour plus the end.
    hour_start: np.ndarray

    @property
    def hours(self) -> int:
        return len(self.hour_start) - 1

    def hour(self, h: int) -> tuple[int, int]:
        return int(self.hour_start[h]), int(self.hour_start[h + 1])

    def samples(self, lo: int, hi: int) -> list[AgentSample]:
        names = self.names
        return [
            AgentSample(*names[k], t, v)
            for k, t, v in zip(
                self.key[lo:hi].tolist(),
                self.timestamp[lo:hi].tolist(),
                self.value[lo:hi].tolist(),
            )
        ]


def deliver(
    names: list[tuple[str, str]],
    hourly: np.ndarray,
    first_hour: int,
    noise: np.ndarray,
    rng: np.random.Generator,
) -> Feed:
    """Four 15-minute polls per key and hour, mangled one hour at a time.

    ``hourly[k, h]`` is key ``k``'s mean for hour ``first_hour + h``. The
    four polls scatter around it by zero-mean noise of scale ``noise[k]``,
    so the closed window reproduces it.
    """
    n_keys, n_hours = hourly.shape
    scatter = rng.normal(0.0, 1.0, (n_keys, n_hours, POLLS_PER_HOUR)) * noise[:, None, None]
    polls = hourly[:, :, None] + scatter - scatter.mean(axis=2, keepdims=True)
    keys, stamps, values, bounds = [], [], [], [0]
    for h in range(n_hours):
        base = (first_hour + h) * HOUR
        batch: list[AgentSample] = []
        owner: dict[int, int] = {}
        for k, (instance, metric) in enumerate(names):
            for q, value in enumerate(polls[k, h].tolist()):
                sample = AgentSample(instance, metric, base + q * POLL_SECONDS, value)
                batch.append(sample)
                owner[id(sample)] = k
        order = mangle_delivery(batch, rng, JITTER_SECONDS, DUPLICATE_RATE)
        n = len(order)
        keys.append(np.fromiter((owner[id(s)] for s in order), dtype=np.int32, count=n))
        stamps.append(np.fromiter((s.timestamp for s in order), dtype=float, count=n))
        values.append(np.fromiter((s.value for s in order), dtype=float, count=n))
        bounds.append(bounds[-1] + n)
    return Feed(
        names=list(names),
        key=np.concatenate(keys),
        timestamp=np.concatenate(stamps),
        value=np.concatenate(values),
        hour_start=np.asarray(bounds),
    )


def _daily(
    rng: np.random.Generator, n: int, level: float, amplitude: tuple[float, float] = (0.15, 0.3)
) -> np.ndarray:
    """A daily cycle around ``level``, of seeded phase and of seeded amplitude in
    the ``amplitude`` range (as shares of the level)."""
    phase = rng.uniform(0, PERIOD)
    amplitude = rng.uniform(*amplitude) * level
    return level + amplitude * np.sin(2 * np.pi * (np.arange(n) + phase) / PERIOD)


def seasonal_series(rng: np.random.Generator, n: int, level: float, noise: float) -> np.ndarray:
    """Daily and weekly cycles around ``level`` plus white noise."""
    weekly = rng.uniform(0.0, 0.06) * level * np.sin(2 * np.pi * np.arange(n) / (7 * PERIOD))
    return _daily(rng, n, level) + weekly + rng.normal(0.0, noise, n)


def wandering_series(
    rng: np.random.Generator, n: int, level: float, noise: float, quiet_from: int
) -> np.ndarray:
    """A small daily cycle on a slowly wandering (AR(1), phi 0.97) level.

    The wandering level makes HES fit a high smoothing constant, so after
    a level shift the re-selected model is at the new level at once: a
    shift nearly always trips one re-selection, not a cascade of them.
    From ``quiet_from`` on, the noise is halved, so the drift detector of
    a model fitted on the earlier part stays quiet unless the level
    shifts. The daily cycle is small (2-4 % of the level), so a
    multiplicative seasonal model, which a shift can make the selection
    pick, seldom mis-scales it enough to trip the detector again.
    """
    scale = np.full(n, noise)
    scale[quiet_from:] *= 0.5
    wander = lfilter([1.0], [1.0, -0.97], rng.normal(0.0, 1.0, n) * scale)
    daily = _daily(rng, n, level, amplitude=(0.02, 0.04))
    return daily + wander + 0.1 * scale * rng.normal(0.0, 1.0, n)


def unpersisted(repo: MetricsRepository, names, rows: int) -> list[str]:
    """A failure unless every key holds exactly ``rows`` rows in ``repo``."""
    off = [f"{i}/{m}" for i, m in names if repo.sample_count(i, m) != rows]
    if off:
        return [f"{len(off)} keys do not hold {rows} persisted rows, e.g. {off[0]}"]
    return []


@dataclass
class Deployment:
    """One set-up runtime plus the repository it writes to."""

    runtime: StreamRuntime
    repository: MetricsRepository

    def close(self) -> None:
        self.repository.close()


def _planner() -> EstatePlanner:
    # The streaming default: HES re-selection, no pool.
    return EstatePlanner(config=AutoConfig(technique="hes", n_jobs=1), cache=SelectionCache())


class Workload:
    """Shared shape of a workload; subclasses fill in inputs and checks.

    A run makes as many passes over the same inputs as fit in its
    ``--seconds``, at least two and at most ``passes``. Each pass sets the
    deployment up ``setups`` times (keeping the last) and then streams
    ``hours`` simulated hours after the warm-up hour, one delivery (one
    tick) per hour. Every pass replays the same ticks from the same
    state, so the passes spread set-ups and ticks over the run.
    """

    name = ""
    sizes: dict[str, dict] = {}

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = int(seed)
        self.params = dict(self.sizes[size])
        self.workdir = workdir
        self.hours = self.params["hours"]
        self.passes = self.params["passes"]
        self.setups = self.params["setups"]
        self.feed: Feed = None

    def delivery(self, h: int) -> list[AgentSample]:
        """Hour ``h``'s polls in delivery order: one tick."""
        return self.feed.samples(*self.feed.hour(h))

    def prepare(self) -> None:
        """Untimed work before each set-up (e.g. restoring a pristine file)."""

    def setup(self, warmup: list[AgentSample]) -> Deployment:
        """A fresh deployment that has taken ``warmup``, the untimed hour 0."""
        raise NotImplementedError

    def after_setup(self, dep: Deployment) -> list[str]:
        """Checks on the freshly set-up deployment; returns failures."""
        return []

    def observe(self, dep: Deployment, tick) -> list[str]:
        """Per-tick checks (untimed); returns failures."""
        return []

    def check(self, dep: Deployment) -> list[str]:
        """End-of-pass checks, after ``hours`` timed hours; returns failures."""
        return []


# ---------------------------------------------------------------------------
# serve: steady-state serving of adopted models
# ---------------------------------------------------------------------------
@dataclass
class _Archetype:
    """One fitted model the serve keys are cloned from."""

    family: str
    technique: str
    model: object
    history: np.ndarray
    #: Forecast mean over the whole run: the path the clones' polls follow.
    path: np.ndarray
    #: Widest half-width of the model's 24-step band.
    half_band: float

    @property
    def sigma(self) -> float:
        return math.sqrt(self.model.sigma2)

    def peak_floor(self) -> float:
        """The lowest peak of any 24-hour window of the path."""
        windows = np.lib.stride_tricks.sliding_window_view(self.path, PERIOD)
        return float(windows.max(axis=1).min())

    def clone(self, offset: float, history: TimeSeries) -> SelectionOutcome:
        """This model shifted by ``offset``, trained on ``history``."""
        model = self.model
        if self.family == "dayprofile":
            clone = dataclasses.replace(model, train=history, centroids=model.centroids + offset)
        elif self.technique == "hes":
            clone = dataclasses.replace(model, train=history, level=model.level + offset)
        else:  # seasonal differencing makes the level offset pass through
            clone = dataclasses.replace(model, train=history)
        return SelectionOutcome(
            model=clone,
            technique=self.technique,
            test_rmse=self.sigma,
            best_spec=None,
            seasonality=None,
            shock_calendar=None,
        )


class Serve(Workload):
    """Thresholded keys with pre-fitted models, one simulated hour per tick.

    Each key's model is a clone of one of a few archetype fits, shifted
    to the key's level, and its future polls follow that model's own
    forecast path with small noise. So no drift detector trips, nothing
    expires inside ``hours`` (under the 7-day expiry and the 504 h
    data-growth horizon) and every tick is rolls, grading, alerts and
    plan escalation with zero selections.
    """

    name = "serve"
    sizes = {
        "full": dict(keys=256, hours=50, passes=12, setups=3),
        "tiny": dict(keys=24, hours=6, passes=2, setups=1),
    }
    threshold = 80.0
    breach_share = 0.25
    #: Family mix: (label, technique, unfitted model from the seed, share of keys).
    #: The shares are an assumption, not a measured estate: half HES, which
    #: the streaming re-selection picks, plus DayProfile cohorts and a SARIMA
    #: share that rolls and grades per key. README.md gives the traced layer
    #: shares this mix produces.
    families = (
        ("hes", "hes", lambda seed: HoltWinters(period=PERIOD), 0.3),
        ("hes-damped", "hes", lambda seed: HoltWinters(period=PERIOD, damped=True), 0.2),
        ("dayprofile", "dayprofile", lambda seed: DayProfile(period=PERIOD, seed=seed), 0.38),
        ("sarima", "sarimax", lambda seed: Arima((1, 0, 1), seasonal=(0, 1, 1, PERIOD)), 0.12),
    )

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        rng = np.random.default_rng([self.seed, 1])
        n = self.params["keys"]
        hours = 1 + self.hours
        archetypes = []
        for family, technique, unfitted, __ in self.families:
            for __ in range(2):
                level, noise = rng.uniform(35.0, 50.0), rng.uniform(0.8, 1.5)
                series = TimeSeries(
                    seasonal_series(rng, HISTORY_HOURS, level, noise), Frequency.HOURLY, name=family
                )
                model = unfitted(self.seed).fit(series)
                band = model.forecast(PERIOD)
                archetypes.append(
                    _Archetype(
                        family=family,
                        technique=technique,
                        model=model,
                        history=series.values,
                        path=model.forecast(max(hours, PERIOD)).mean.values,
                        half_band=float(np.max(band.upper.values - band.mean.values)),
                    )
                )
        counts = np.floor([share * n for *__, share in self.families]).astype(int)
        counts[0] += n - counts.sum()
        family_of = rng.permutation(np.repeat(np.arange(len(self.families)), counts))
        breaching = np.zeros(n, dtype=bool)
        breaching[rng.choice(n, size=round(self.breach_share * n), replace=False)] = True

        self.names = [(f"db{k:04d}", "cpu") for k in range(n)]
        self.histories: list[TimeSeries] = []
        self.outcomes: list[SelectionOutcome] = []
        future = np.empty((n, hours))
        noise = np.empty(n)
        for k, (instance, metric) in enumerate(self.names):
            arch = archetypes[2 * family_of[k] + rng.integers(2)]
            if breaching[k]:
                offset = self.threshold - arch.peak_floor() + rng.uniform(1.0, 5.0)
            else:
                top = arch.path.max() + arch.half_band
                offset = self.threshold - top - rng.uniform(4.0, 20.0)
            history = TimeSeries(
                arch.history + offset, Frequency.HOURLY, name=f"{instance}.{metric}"
            )
            self.histories.append(history)
            self.outcomes.append(arch.clone(offset, history))
            # Small noise around the model's own path keeps every CUSUM quiet.
            future[k] = arch.path[:hours] + offset + rng.normal(0.0, 0.2 * arch.sigma, hours)
            noise[k] = 0.5 * arch.sigma
        self.feed = deliver(self.names, future, HISTORY_HOURS, noise, rng)

    def setup(self, warmup):
        repo = MetricsRepository()
        runtime = StreamRuntime(
            _planner(),
            StreamConfig(thresholds={"cpu": self.threshold}, planning=True, seed=self.seed),
            executor=SerialExecutor(),
            repository=repo,
        )
        scheduler = runtime.scheduler
        for (instance, metric), history, outcome in zip(self.names, self.histories, self.outcomes):
            scheduler.seed_history(instance, metric, history)
            scheduler.adopt_model(instance, metric, outcome)
        runtime.ingest_batch(warmup)
        return Deployment(runtime, repo)

    def observe(self, dep, tick):
        failures = []
        if len(tick.advisories) != len(self.names):
            failures.append(f"serve: {len(tick.advisories)} advisories for {len(self.names)} keys")
        degraded = sum(1 for a in tick.advisories.values() if a.degraded)
        if degraded:
            failures.append(f"serve: {degraded} degraded advisories")
        return failures

    def check(self, dep):
        counters = dep.runtime.telemetry().counters
        failures = []
        for name in ("stream_selection_runs", "stream_refits_triggered", "stream_drift_refits"):
            if counters.get(name, 0):
                failures.append(f"serve: {name} = {counters[name]}, expected 0")
        rolls = counters.get("stream_rolls_applied", 0)
        closed = counters.get("windows_closed", 0)
        expected = len(self.names) * self.hours
        if not rolls == closed == expected:
            failures.append(
                f"serve: {rolls} rolls, {closed} windows closed, expected {expected} of each"
            )
        failures += unpersisted(dep.repository, self.names, self.hours)
        return failures


# ---------------------------------------------------------------------------
# churn: a restarted deployment whose tenants drift
# ---------------------------------------------------------------------------
class Churn(Workload):
    """A few dozen keys restarted from an on-disk repository, then shifted.

    Set-up is a real restart: every key's 1008 h history is read back from
    the sqlite file and ``resync`` re-selects all of them. The timed phase
    streams one hour per tick while a seeded, staggered share of keys
    steps up in level, so CUSUM trips and those keys re-select mid-stream.
    """

    name = "churn"
    sizes = {
        "full": dict(keys=36, shifts=20, hours=100, passes=4, setups=1),
        "tiny": dict(keys=4, shifts=2, hours=12, passes=2, setups=1),
    }
    threshold = 95.0
    #: Hours a shifted key is given to trip before the check expects its re-selection.
    trip_hours = 6
    #: Smallest HES level smoothing constant of a key that gets a shift.
    min_alpha = 0.8

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        rng = np.random.default_rng([self.seed, 3])
        n = self.params["keys"]
        total = HISTORY_HOURS + 1 + self.hours
        self.names = [(f"tenant{k:03d}", "cpu") for k in range(n)]
        sigma = rng.uniform(1.0, 2.0, n)
        series = np.stack(
            [
                wandering_series(rng, total, rng.uniform(60.0, 75.0), s, HISTORY_HOURS)
                for s in sigma
            ]
        )
        # Staggered level shifts inside the timed hours, at most one per key,
        # on keys whose level HES tracks quickly: their re-selected model
        # absorbs the step at once, so a shift nearly always trips one
        # re-selection. A slow-level key (alpha near 0.5) would re-select
        # again a few hours later while its model caught up.
        n_shifts = self.params["shifts"]
        alphas = [
            HoltWinters(period=PERIOD).fit(TimeSeries(row[:HISTORY_HOURS], Frequency.HOURLY)).alpha
            for row in series
        ]
        order = [k for k in rng.permutation(n) if alphas[k] >= self.min_alpha]
        if n_shifts > len(order):
            raise ValueError(f"churn: {n_shifts} shifts but {len(order)} keys with a fast level")
        spacing = (self.hours - self.trip_hours - 4) / n_shifts
        self.shifts: list[tuple[int, int]] = []  # (key, first shifted hour of the feed)
        for j in range(n_shifts):
            k = int(order[j])
            h = 2 + int(j * spacing + rng.uniform(0, spacing / 2))
            series[k, HISTORY_HOURS + h :] += rng.uniform(16.0, 20.0) * sigma[k]
            self.shifts.append((k, h))
        self.pristine = workdir / "churn-pristine.db"
        self.database = workdir / "churn.db"
        with MetricsRepository(str(self.pristine)) as repo:
            repo.ingest(
                [
                    AgentSample(instance, metric, h * HOUR, float(series[k, h]))
                    for k, (instance, metric) in enumerate(self.names)
                    for h in range(HISTORY_HOURS)
                ]
            )
        future = series[:, HISTORY_HOURS:]
        self.feed = deliver(self.names, future, HISTORY_HOURS, 0.5 * sigma, rng)

    def prepare(self):
        for suffix in ("-wal", "-shm"):
            Path(f"{self.database}{suffix}").unlink(missing_ok=True)
        shutil.copyfile(self.pristine, self.database)

    def setup(self, warmup):
        repo = MetricsRepository(str(self.database))
        runtime = StreamRuntime(
            _planner(),
            StreamConfig(thresholds={"cpu": self.threshold}, seed=self.seed),
            executor=SerialExecutor(),
            repository=repo,
        )
        for instance, metric in self.names:
            runtime.seed_from_repository(repo, instance, metric)
        runtime.scheduler.resync()
        runtime.ingest_batch(warmup)
        return Deployment(runtime, repo)

    def after_setup(self, dep):
        planner = dep.runtime.planner
        keys = planner.keys()
        modelled = sum(1 for key in keys if planner.entry(key).status is WorkloadStatus.MODELLED)
        if modelled != len(self.names):
            return [f"churn: {len(self.names) - modelled} keys not modelled after restart"]
        return []

    def check(self, dep):
        """Each shift re-selects its key within ``trip_hours``; nothing re-selects unshifted.

        Every key also holds its history plus one row per closed hour. A
        shift within ``trip_hours`` of the pass's end may not have tripped
        yet, so it is allowed, not required, to re-select. A shifted key
        may re-select again later: the model picked one hour after the
        step can drift off the new level and trip once more (seed 37: a
        multiplicative-seasonal pick with alpha 0.76 re-tripped a day
        later). That is the drift monitor working, not a fault.
        """
        failures = unpersisted(dep.repository, self.names, HISTORY_HOURS + self.hours)
        refits: dict[str, list[float]] = {}
        for event in dep.runtime.scheduler.refit_log:
            refits.setdefault(event.key.workload, []).append(event.at)
        shifted = {self.names[k][0]: h for k, h in self.shifts}
        failures += [
            f"churn: {instance} re-selected {len(ats)} times but never shifted"
            for instance, ats in refits.items()
            if instance not in shifted
        ]
        for instance, h in shifted.items():
            ats = refits.get(instance, [])
            shift_at = (HISTORY_HOURS + h) * HOUR
            due = h + self.trip_hours <= self.hours
            if any(at < shift_at for at in ats):
                failures.append(f"churn: {instance} re-selected before its shift at hour {h}")
            elif due and not any(at <= shift_at + self.trip_hours * HOUR for at in ats):
                failures.append(
                    f"churn: {instance} shifted at hour {h} but did not re-select "
                    f"within {self.trip_hours} hours"
                )
        return failures


WORKLOADS = {cls.name: cls for cls in (Serve, Churn)}
