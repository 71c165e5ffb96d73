"""End-to-end alert → plan escalation inside the streaming runtime.

Selection is stubbed with the cheap flat model (as in the stream runtime
tests) so the escalation loop — advisory streaks, trigger firing,
blueprint scoring, sink emission — runs at interactive speed under the
runtime's ManualClock.
"""

from repro.agent import AgentSample
from repro.planner import PlanProposal
from repro.selection import AutoConfig
from repro.service import EstatePlanner
from repro.stream import StreamConfig, StreamRuntime

STEP = 900.0


def polls(n_hours, value, start_hour=0, instance="db1", metric="cpu"):
    return [
        AgentSample(
            instance=instance,
            metric=metric,
            timestamp=(start_hour * 4 + i) * STEP,
            value=float(value),
        )
        for i in range(int(n_hours * 4))
    ]


def breach_stream():
    """Steady load well above the threshold: the model forecasts a
    breach from its first selection and the advisory streak builds
    without ever tripping the drift detector."""
    return polls(48, 150.0)


def step_stream():
    """A day of calm then a step to breach level — the step degrades the
    model's RMSE, so the drift trigger fires alongside the breach."""
    return polls(24, 40.0) + polls(24, 150.0, start_hour=24)


def config(planning=True, **overrides):
    kwargs = dict(
        thresholds={"cpu": 100.0},
        jitter_seconds=0.0,
        duplicate_rate=0.0,
        batch_polls=16,
        raise_after=2,
        recover_after=2,
        min_observations=24,
        seed=7,
        planning=planning,
        plan_sustained_ticks=2,
        plan_cooldown_seconds=4 * 3600.0,
    )
    kwargs.update(overrides)
    return StreamConfig(**kwargs)


def runtime(planning=True, **overrides):
    return StreamRuntime(
        planner=EstatePlanner(config=AutoConfig(technique="hes", n_jobs=1)),
        config=config(planning=planning, **overrides),
    )


class TestEscalation:
    def test_sustained_breach_emits_a_resolving_proposal(self, stub_selection):
        rt = runtime()
        rt.run(breach_stream())
        rt.finish()
        assert rt.proposals, "sustained breach never produced a proposal"
        assert all(isinstance(p, PlanProposal) for p in rt.proposals)
        proposal = next(
            p for p in rt.proposals if "sustained-breach" in p.reasons
        )
        assert proposal.baseline_probability > 0.99
        # The recommended blueprint eliminates the forecast breach under
        # the planner's own scoring.
        assert proposal.resolves_breach
        assert proposal.score.breach_probability < 0.05
        # ...by provisioning more CPU than the current t-small box has.
        assert proposal.blueprint.capacity("cpu") > 2.0

    def test_proposal_rides_the_alert_sink(self, stub_selection):
        rt = runtime()
        rt.run(breach_stream())
        rt.finish()
        sunk = [e for e in rt.alerts.sink.events if isinstance(e, PlanProposal)]
        assert sunk == rt.proposals
        assert all(e.kind == "plan-proposal" for e in sunk)
        assert "PLAN" in sunk[0].describe()

    def test_cooldown_debounces_proposals(self, stub_selection):
        rt = runtime()
        rt.run(breach_stream())
        rt.finish()
        times = [p.at for p in rt.proposals if p.key.workload == "db1"]
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= rt.config.plan_cooldown_seconds

    def test_quiet_stream_emits_nothing(self, stub_selection):
        rt = runtime()
        rt.run(polls(48, 40.0))
        rt.finish()
        assert rt.proposals == []
        assert rt.telemetry().counters.get("plan_triggers_fired", 0) == 0

    def test_plan_counters_flow_into_summary(self, stub_selection):
        rt = runtime()
        rt.run(breach_stream())
        rt.finish()
        counters = rt.telemetry().counters
        assert counters["plan_proposals_emitted"] == len(rt.proposals)
        assert counters["plan_triggers_fired"] >= len(rt.proposals)
        assert counters["plan_blueprints_scored"] > 0
        plans_line = next(
            line for line in rt.summary_lines() if line.startswith("plans:")
        )
        assert f"{len(rt.proposals)} proposals" in plans_line

    def test_planning_disabled_runtime_has_no_plan_surface(self, stub_selection):
        rt = runtime(planning=False)
        rt.run(breach_stream())
        rt.finish()
        assert rt.escalator is None
        assert rt.proposals == []
        assert not any(line.startswith("plans:") for line in rt.summary_lines())


class TestPlanningIsObservationOnly:
    def test_advisories_and_alerts_identical_with_planning_on(self, stub_selection):
        """Planning must never perturb the serving plane: advisories,
        alert events and refits are byte-identical with it on or off."""
        samples = breach_stream()
        plain, planning = runtime(planning=False), runtime(planning=True)
        ticks_plain = plain.run(samples) + [plain.finish()]
        ticks_planning = planning.run(samples) + [planning.finish()]

        assert len(ticks_plain) == len(ticks_planning)
        for a, b in zip(ticks_plain, ticks_planning):
            assert sorted(a.advisories) == sorted(b.advisories)
            for key in a.advisories:
                assert a.advisories[key] == b.advisories[key]
            assert [e.reason for e in a.refits] == [e.reason for e in b.refits]
        assert plain.events == planning.events
        assert planning.proposals  # ... while still actually planning


class TestPlanInputs:
    def test_plan_inputs_cover_thresholded_keys(self, stub_selection):
        rt = runtime()
        rt.run(breach_stream())
        rt.finish()
        inputs = rt.plan_inputs()
        assert [k["instance"] for k in inputs["keys"]] == ["db1"]
        record = inputs["keys"][0]
        assert record["metric"] == "cpu"
        assert record["threshold"] == 100.0
        assert len(record["band"]["mean"]) > 0
        assert inputs["triggers"]  # escalator tracker state rides along

    def test_plan_inputs_without_planning_enabled(self, stub_selection):
        rt = runtime(planning=False)
        rt.run(breach_stream())
        rt.finish()
        inputs = rt.plan_inputs()
        assert inputs["keys"] and inputs["triggers"] == {}
