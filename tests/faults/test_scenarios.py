"""Named chaos scenarios: every drill survives, deterministically per seed."""

import json

import pytest

from repro.exceptions import DataError
from repro.faults.scenarios import SCENARIOS, run_scenario


@pytest.fixture(autouse=True)
def reduced(monkeypatch):
    monkeypatch.setenv("REPRO_REDUCED_GRID", "1")


class TestRegistry:
    def test_names_match_keys(self):
        assert all(SCENARIOS[name].name == name for name in SCENARIOS)
        assert {
            "agent-flap",
            "nan-burst",
            "repo-lock",
            "slow-selection",
            "worker-crash",
            "blackout",
        } <= set(SCENARIOS)

    def test_every_scenario_has_a_description(self):
        assert all(SCENARIOS[name].description for name in SCENARIOS)

    def test_unknown_scenario(self):
        with pytest.raises(DataError, match="unknown chaos scenario"):
            run_scenario("does-not-exist")


class TestSurvival:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_no_scenario_crashes_or_falls_silent(self, name):
        report = run_scenario(name, seed=7)
        assert report.survived, report.render()
        assert report.ticks > 0
        assert report.advisory_ticks > 0
        assert not any(note.startswith("runtime crashed") for note in report.notes)

    def test_blackout_runs_purely_degraded(self):
        report = run_scenario("blackout", seed=7)
        assert report.degraded_ticks > 0
        assert report.faults.get("degraded_seasonal_naive", 0) > 0
        assert report.faults.get("recovery_reselections", 0) > 0


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        first = run_scenario("agent-flap", seed=7)
        second = run_scenario("agent-flap", seed=7)
        assert first.to_json() == second.to_json()
        assert first.faults == second.faults

    def test_different_seed_differs(self):
        base = run_scenario("agent-flap", seed=7)
        other = run_scenario("agent-flap", seed=8)
        assert base.to_json() != other.to_json()

    def test_report_json_round_trips(self):
        report = run_scenario("repo-lock", seed=3)
        doc = json.loads(report.to_json())
        assert doc["scenario"] == "repo-lock"
        assert doc["seed"] == 3
        assert doc["survived"] is True
        assert doc["faults"]  # injected lock contention was recorded
        assert "repository_write_retries" in doc["faults"]


class TestDispatchParity:
    """Chaos drills must not care how the scheduler grades its keys.

    No counter copied into the survival report depends on whether a key
    graded in a cohort or alone, so a run whose batched forecasts all
    raise (every job then takes the scalar grader) has to produce a
    byte-identical report — faults knock individual keys out of their
    cohort, never the whole batch.
    """

    @pytest.mark.parametrize("name", ["nan-burst", "blackout"])
    def test_cohort_and_per_key_reports_match(self, name, monkeypatch):
        batched = run_scenario(name, seed=11)

        def boom(models, horizon, alpha=0.05):
            raise RuntimeError("batched forecast unavailable")

        monkeypatch.setattr("repro.stream.scheduler.forecast_cohort_arrays", boom)
        monkeypatch.setattr("repro.stream.scheduler.dayprofile_forecast_cohort_arrays", boom)
        scalar = run_scenario(name, seed=11)
        assert batched.survived and scalar.survived
        assert batched.to_json() == scalar.to_json()
        assert batched.faults == scalar.faults

    def test_faulted_keys_do_not_sink_the_cohort(self):
        # nan-burst poisons a slice of samples; under cohort grading the
        # healthy keys must keep grading through the burst.
        report = run_scenario("nan-burst", seed=11)
        assert report.survived, report.render()
        assert report.faults.get("fault_nan_burst_samples", 0) > 0
        assert report.counters.get("samples_nonfinite", 0) > 0
        assert report.advisory_ticks > 0
