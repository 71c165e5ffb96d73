"""The sharding determinism contract: N shards ≡ one process.

Alerts and advisories from a :class:`ShardedRuntime` must be
byte-identical to a single-process :class:`StreamRuntime` fed the same
poll stream — at N=1 *everything* matches (including merged telemetry
counters), at any N the advisory/alert stream matches because the
delivery model is applied once at the router, chunk clocks are global
and fan-in merges in key order.

Selection is stubbed with a cheap deterministic model (as in the stream
runtime tests) so the parity property runs at interactive speed; shards
run inline (same protocol as process mode, no IPC) so the stub patch is
visible to every shard.
"""

import numpy as np
import pytest

from repro.agent import AgentSample
from repro.selection import AutoConfig
from repro.service import EstatePlanner, SelectionCache
from repro.shard import ShardedRuntime
from repro.stream import StreamConfig, StreamRuntime

STEP = 900.0


def polls(n_hours, value, start_hour, instance, metric, slope=0.0):
    return [
        AgentSample(
            instance=instance,
            metric=metric,
            timestamp=(start_hour * 4 + i) * STEP,
            value=float(value + slope * i + 8 * np.sin(i / 4)),
        )
        for i in range(int(n_hours * 4))
    ]


def sample_stream():
    """Six keys over two metrics; some breach, some stay calm, one recovers."""
    out = []
    for k, inst in enumerate(["db1", "db2", "db3"]):
        out += polls(24, 40 + 5 * k, 0, inst, "cpu")
        out += polls(24, 60 + 25 * k, 24, inst, "cpu", slope=1.2)
        out += polls(24, 120 - 20 * k, 0, inst, "mem")
        out += polls(24, 50, 24, inst, "mem")
    out.sort(key=lambda s: s.timestamp)
    return out


CONFIG = StreamConfig(
    thresholds={"cpu": 100.0, "mem": 90.0},
    jitter_seconds=600.0,
    duplicate_rate=0.1,
    batch_polls=48,
    raise_after=2,
    recover_after=2,
    min_observations=24,
    seed=7,
)


@pytest.fixture(scope="function")
def single_run(stub_selection):
    rt = StreamRuntime(
        planner=EstatePlanner(
            config=AutoConfig(technique="hes", n_jobs=1), cache=SelectionCache()
        ),
        config=CONFIG,
    )
    ticks = rt.run(sample_stream())
    final = rt.finish()
    return rt, ticks, final


def sharded_run(n):
    sh = ShardedRuntime(n, config=CONFIG, technique="hes", processes=False)
    ticks = sh.run(sample_stream())
    final = sh.finish()
    return sh, ticks, final


class TestShardedParity:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_advisories_identical_every_tick(self, single_run, n):
        rt, sticks, sfinal = single_run
        sh, hticks, hfinal = sharded_run(n)
        try:
            assert len(hticks) == len(sticks)
            for stick, htick in zip([*sticks, sfinal], [*hticks, hfinal]):
                assert sorted(stick.advisories) == list(htick.advisories)
                for key in htick.advisories:
                    assert stick.advisories[key] == htick.advisories[key]
        finally:
            sh.close()

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_alert_events_identical(self, single_run, n):
        rt, _, _ = single_run
        sh, _, _ = sharded_run(n)
        try:
            assert sh.events == rt.events
            assert len(sh.events) > 0  # the fixture stream must alert
        finally:
            sh.close()

    def test_n1_telemetry_counters_identical(self, single_run):
        rt, _, _ = single_run
        sh, _, _ = sharded_run(1)
        try:
            single = rt.telemetry()
            merged = sh.telemetry()
            assert merged.counters == single.counters
            assert merged.faults == single.faults
        finally:
            sh.close()

    def test_n1_summary_lines_identical_below_header(self, single_run):
        rt, _, _ = single_run
        sh, _, _ = sharded_run(1)
        try:
            lines = sh.summary_lines()
            assert lines[0].startswith("shards: 1 (inline")
            assert lines[1:] == rt.summary_lines()
        finally:
            sh.close()

    @pytest.mark.parametrize("n", [2, 4])
    def test_ingest_totals_conserved(self, single_run, n):
        """Partitioning must not lose, duplicate or re-mangle samples."""
        rt, _, _ = single_run
        single = rt.telemetry().counters
        sh, _, _ = sharded_run(n)
        try:
            merged = sh.telemetry().counters
            for counter in (
                "samples_accepted",
                "samples_duplicate",
                "windows_closed",
                "stream_ticks",
                "alerts_raised",
                "alerts_recovered",
            ):
                assert merged.get(counter, 0) == single.get(counter, 0), counter
        finally:
            sh.close()

    def test_refit_events_cover_same_keys(self, single_run):
        rt, sticks, sfinal = single_run
        sh, hticks, hfinal = sharded_run(2)
        try:
            single_refits = [(e.key, e.reason) for e in rt.scheduler.refit_log]
            sharded_refits = [
                (e.key, e.reason)
                for tick in [*hticks, hfinal]
                for e in tick.refits
            ]
            assert sorted(sharded_refits) == sorted(single_refits)
        finally:
            sh.close()
