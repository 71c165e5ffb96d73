"""The block scorer grades every candidate exactly as scoring it alone.

:func:`rank_blueprint_block` scores all (candidate, metric) rows of many
rankings in one ``(ΣC, H)`` block, NaN-padding short bands. The oracle
below is the per-blueprint scorer the block replaced, kept verbatim: one
summed band and one :func:`breach_probability_arrays` call per metric.
Every score must match it in ``repr`` — consolidations whose members
forecast unequal horizons, NaN/±inf steps and zero capacities included —
so the escalator and the beam planner rank exactly as before.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataError
from repro.planner import (
    DEFAULT_CATALOG,
    ForecastBand,
    InstanceDemand,
    RankingJob,
    ScoreWeights,
    enumerate_blueprints,
    enumerate_consolidations,
    metric_dimension,
    rank_blueprint_block,
    rank_blueprints,
    score_blueprint,
)
from repro.planner.scoring import BlueprintScore, _capacity_density
from repro.service.sizing import overprovision_ratio
from repro.service.thresholds import breach_probability_arrays


def oracle_score(blueprint, demands, weights=ScoreWeights(), reference_cost=None):
    """The per-blueprint scorer: one band sum and one grader call per metric."""
    if not demands:
        raise DataError("score_blueprint needs at least one demand")
    covered = {d.instance for d in demands}
    if covered != set(blueprint.instances):
        raise DataError("coverage mismatch")
    if reference_cost is None:
        reference_cost = sum(d.tier.hourly_cost * d.replicas for d in demands)
    metrics = sorted({m for d in demands for m in d.bands if m in d.capacities})
    if not metrics:
        raise DataError("no metric has both a forecast band and a capacity")
    survival = 1.0
    worst_headroom = math.inf
    worst_overprovision = 1.0
    for metric in metrics:
        parts = [d.bands[metric] for d in demands if metric in d.bands]
        horizon = min(p.mean.size for p in parts)
        if horizon == 0:
            continue
        mean = np.sum([p.mean[:horizon] for p in parts], axis=0)
        upper = np.sum([p.upper[:horizon] for p in parts], axis=0)
        dimension = metric_dimension(metric)
        capacity = _capacity_density(demands, metric, dimension) * blueprint.capacity(dimension)
        p_metric = breach_probability_arrays(mean, upper, capacity, alpha=parts[0].alpha)
        if math.isfinite(p_metric):
            survival *= 1.0 - p_metric
        finite = mean[np.isfinite(mean)]
        if finite.size and capacity > 0:
            worst_headroom = min(worst_headroom, (capacity - float(finite.max())) / capacity)
        finite_upper = upper[np.isfinite(upper)]
        if finite_upper.size and capacity > 0 and float(finite_upper.max()) > 0:
            worst_overprovision = max(
                worst_overprovision, overprovision_ratio(capacity, float(finite_upper.max()))
            )
    breach_probability = 1.0 - survival
    headroom = worst_headroom if math.isfinite(worst_headroom) else 0.0
    cost_term = (
        blueprint.hourly_cost / reference_cost if reference_cost > 0 else blueprint.hourly_cost
    )
    over_penalty = max(0.0, worst_overprovision - weights.target_overprovision)
    composite = (
        weights.breach * breach_probability
        + weights.cost * cost_term
        + weights.overprovision * over_penalty
    )
    return BlueprintScore(
        breach_probability=float(breach_probability),
        expected_headroom=float(headroom),
        overprovision=float(worst_overprovision),
        hourly_cost=float(blueprint.hourly_cost),
        composite=float(composite),
    )


def oracle_rank(job, weights=ScoreWeights()):
    scored = [
        (bp, oracle_score(bp, job.demands, weights, job.reference_cost))
        for bp in job.candidates
    ]
    scored.sort(key=lambda item: (item[1].composite, item[0].slug()))
    return tuple(scored)


STEP = st.one_of(
    st.floats(0.0, 120.0),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
)


@st.composite
def bands(draw):
    horizon = draw(st.integers(0, 6))
    mean = np.array(draw(st.lists(STEP, min_size=horizon, max_size=horizon)), dtype=float)
    spread = np.array(
        draw(st.lists(st.sampled_from([0.0, 1.5, 6.0, np.nan]), min_size=horizon,
                      max_size=horizon)),
        dtype=float,
    )
    alpha = draw(st.sampled_from([0.05, 0.05, 0.2]))
    return ForecastBand(mean=mean, upper=mean + spread, alpha=alpha)


@st.composite
def demands(draw, names):
    out = []
    for name in names:
        metrics = draw(st.lists(st.sampled_from(["cpu", "mem_used", "disk_io"]), min_size=1,
                                max_size=3, unique=True))
        out.append(
            InstanceDemand(
                instance=name,
                tier=draw(st.sampled_from(DEFAULT_CATALOG[:3])),
                bands={m: draw(bands()) for m in metrics},
                capacities={m: draw(st.sampled_from([0.0, 26.0, 80.0])) for m in metrics},
                replicas=draw(st.integers(1, 2)),
            )
        )
    return out


@st.composite
def jobs(draw):
    out = []
    for j in range(draw(st.integers(1, 4))):
        names = [f"db{j}-{i}" for i in range(draw(st.integers(1, 3)))]
        members = draw(demands(names))
        if len(members) == 1:
            only = members[0]
            candidates = enumerate_blueprints(
                only.instance, only.tier, DEFAULT_CATALOG, replicas=only.replicas, max_replicas=2
            )
        else:
            candidates = enumerate_consolidations(names, DEFAULT_CATALOG, max_replicas=2)
        reference = draw(st.sampled_from([None, None, 0.0, 3.5]))
        out.append(RankingJob(candidates, members, reference))
    return out


@settings(max_examples=150, deadline=None)
@given(block=jobs())
def test_block_matches_per_blueprint_scorer(block):
    weights = ScoreWeights()
    expected = [oracle_rank(job, weights) for job in block]
    assert repr(rank_blueprint_block(block, weights)) == repr(expected)
    # The one-job and one-candidate cases are the block scorer too.
    for job, ranked in zip(block, expected):
        assert repr(rank_blueprints(job.candidates, job.demands, weights, job.reference_cost)) == (
            repr(ranked)
        )
        for bp, score in ranked[:2]:
            got = score_blueprint(bp, job.demands, weights, job.reference_cost)
            assert repr(got) == repr(score)


def test_unequal_horizons_pad_without_moving_a_bit():
    # A consolidation truncates to its shortest member; scored next to a
    # longer job in one block, the short rows are NaN-padded.
    rng = np.random.default_rng(3)
    short = InstanceDemand(
        "a", DEFAULT_CATALOG[0],
        bands={"cpu": ForecastBand(mean=rng.uniform(10, 30, 5), upper=rng.uniform(31, 40, 5))},
        capacities={"cpu": 26.0},
    )
    long_ = InstanceDemand(
        "b", DEFAULT_CATALOG[0],
        bands={"cpu": ForecastBand(mean=rng.uniform(10, 30, 24), upper=rng.uniform(31, 40, 24))},
        capacities={"cpu": 26.0},
    )
    block = [
        RankingJob(enumerate_consolidations(["a", "b"], DEFAULT_CATALOG), [short, long_]),
        RankingJob(enumerate_blueprints("b", DEFAULT_CATALOG[0], DEFAULT_CATALOG), [long_]),
    ]
    assert repr(rank_blueprint_block(block)) == repr([oracle_rank(job) for job in block])


def test_errors_match_the_per_blueprint_scorer():
    good = InstanceDemand(
        "a", DEFAULT_CATALOG[0],
        bands={"cpu": ForecastBand(mean=np.full(4, 20.0), upper=np.full(4, 25.0))},
        capacities={"cpu": 26.0},
    )
    candidates = enumerate_blueprints("a", DEFAULT_CATALOG[0], DEFAULT_CATALOG)
    with pytest.raises(DataError, match="at least one demand"):
        rank_blueprint_block([RankingJob(candidates, [])])
    with pytest.raises(DataError, match="covers"):
        rank_blueprint_block([RankingJob(candidates, [good]), RankingJob(candidates, [
            InstanceDemand("z", DEFAULT_CATALOG[0], bands=good.bands, capacities=good.capacities)
        ])])
    bandless = InstanceDemand("a", DEFAULT_CATALOG[0], capacities={"cpu": 26.0})
    with pytest.raises(DataError, match="no metric"):
        rank_blueprint_block([RankingJob(candidates, [bandless])])
    huge = InstanceDemand("a", DEFAULT_CATALOG[0], bands=good.bands, capacities={"cpu": 1e308})
    with pytest.raises(DataError, match="finite"):
        oracle_score(candidates[-1], [huge])
    with pytest.raises(DataError, match="finite"):
        rank_blueprint_block([RankingJob(candidates, [huge])])
    assert rank_blueprint_block([RankingJob((), [good])]) == [()]
    assert rank_blueprint_block([]) == []
