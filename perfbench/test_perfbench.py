"""Self-tests of the benchmark: every metric is printed, every check bites.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
The runs here use the ``tiny`` input size; their numbers mean nothing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import phase, run
from perfbench import tracer as tracer_module
from perfbench.tracer import Tracer
from repro.agent.repository import MetricsRepository
from repro.stream.drift import CusumDetector
from repro.stream.scheduler import ForecastScheduler

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _expected(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_spec_names_the_workloads_run_py_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert _expected("end_to_end") == run.UNITS


def test_stage_metrics_follow_the_selection_pipeline():
    from repro.engine.pipeline import PIPELINE_STAGES

    assert phase.STAGES == tuple(name for name, __ in PIPELINE_STAGES)


def test_every_entry_point_is_found():
    Tracer().install().uninstall()  # raises LookupError on a missing one


def test_missing_entry_point_fails_the_traced_run(monkeypatch):
    from repro.stream.ingest import IngestBus

    original = IngestBus.push_chunk
    bogus = ("repro.stream.ingest", "IngestBus", "push_chunks_renamed", "ingest", None)
    monkeypatch.setattr(tracer_module, "ENTRY_POINTS", (*tracer_module.ENTRY_POINTS, bogus))
    with pytest.raises(LookupError, match="push_chunks_renamed"):
        phase.run_phase("serve", seed=5, seconds=0.2, size="tiny", traced=True)
    assert IngestBus.push_chunk is original  # nothing is left wrapped


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = _run_cli(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _expected("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in printed.items():
        line = next(line for line in proc.stdout.splitlines() if line.split()[:1] == [name])
        assert unit in line and "n=" in line
    assert "fingerprint:" in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    proc = _run_cli(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _expected("per_layer")
    if workload == "serve":
        assert metrics["select.calls"]["value"] == 0
        assert metrics["roll.calls"]["value"] > 0 and metrics["plan.calls"]["value"] > 0
        assert metrics["persist.items"]["value"] > 0
    if workload == "churn":
        assert metrics["select.items"]["value"] > 0
        assert metrics["setup.select_ms"]["value"] > 0
        assert metrics["setup.persist_ms"]["value"] > 0


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    proc = _run_cli("serve", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# Breaking a checked output must fail the run.
# ---------------------------------------------------------------------------
def _failures(workload: str) -> list[str]:
    return phase.run_phase(workload, seed=5, seconds=0.2, size="tiny", single=True)["failures"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_unbroken_tiny_runs_pass_their_checks(workload):
    assert _failures(workload) == []


def test_serve_fails_when_models_stop_rolling(monkeypatch):
    monkeypatch.setattr(ForecastScheduler, "_advance_live", lambda self, fresh: {})
    assert any("rolls" in f for f in _failures("serve"))


def test_serve_fails_when_drift_forces_selection(monkeypatch):
    monkeypatch.setattr(CusumDetector, "update_many", lambda self, errors: True)
    failures = _failures("serve")
    assert any("stream_selection_runs" in f for f in failures)
    assert any("stream_drift_refits" in f for f in failures)


def test_serve_fails_on_degraded_advisories(monkeypatch):
    from repro.service.estate import EstatePlanner

    original = EstatePlanner.entry

    def failed_entry(self, key):
        entry = original(self, key)
        entry.outcome = None  # grading falls down the degradation ladder
        return entry

    monkeypatch.setattr(EstatePlanner, "entry", failed_entry)
    assert any("degraded" in f for f in _failures("serve"))


def test_serve_fails_when_a_key_misses_its_advisory(monkeypatch):
    original = ForecastScheduler._grade_all

    def drop_first(self, now):
        advisories = original(self, now)
        advisories.pop(next(iter(advisories)))
        return advisories

    monkeypatch.setattr(ForecastScheduler, "_grade_all", drop_first)
    assert any("advisories for" in f for f in _failures("serve"))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_fails_when_windows_go_unpersisted(monkeypatch, workload):
    original = MetricsRepository.store_windows

    def drop_one(self, windows):
        return original(self, windows[1:])

    monkeypatch.setattr(MetricsRepository, "store_windows", drop_one)
    assert any("persisted" in f for f in _failures(workload))


def test_churn_fails_when_shifts_never_reselect(monkeypatch):
    monkeypatch.setattr(CusumDetector, "update_many", lambda self, errors: False)
    assert any("did not re-select within" in f for f in _failures("churn"))


def test_churn_fails_when_keys_reselect_without_a_shift(monkeypatch):
    monkeypatch.setattr(CusumDetector, "update_many", lambda self, errors: True)
    failures = _failures("churn")
    assert any("never shifted" in f for f in failures)
    assert any("before its shift" in f for f in failures)


def test_churn_fails_when_restart_leaves_keys_unmodelled(monkeypatch):
    monkeypatch.setattr(ForecastScheduler, "resync", lambda self: None)
    assert any("not modelled after restart" in f for f in _failures("churn"))


def test_passes_with_different_outputs_fail(monkeypatch):
    digests = iter(["a" * 64, "b" * 64])
    monkeypatch.setattr(phase.Digest, "hexdigest", lambda self: next(digests))
    result = phase.run_phase("serve", seed=5, seconds=60, size="tiny")
    assert len(result["tick_seconds"]) == 2
    assert any("passes over the same inputs" in f for f in result["failures"])


def test_digest_mismatch_between_traced_and_untraced_fails():
    untraced = phase.run_phase("serve", seed=5, seconds=0.2, size="tiny", single=True)
    traced = phase.run_phase("serve", seed=5, seconds=0.2, size="tiny", traced=True)
    assert run.combine(untraced, traced)[0] == []
    traced["digest"] = "0" * 64
    assert any("different outputs" in f for f in run.combine(untraced, traced)[0])


def test_digest_mismatch_with_an_earlier_run_fails(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "BENCH", tmp_path)
    assert run.check_digest("serve", 5, "tiny", "a" * 64) == []
    assert run.check_digest("serve", 5, "tiny", "a" * 64) == []
    assert run.check_digest("serve", 5, "tiny", "b" * 64) != []


def test_failed_check_prints_incorrect_result_and_exits_1(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "BENCH", tmp_path)
    result = phase.run_phase("serve", seed=5, seconds=0.2, size="tiny", single=True)
    result["failures"] = ["serve: broken on purpose"]
    monkeypatch.setattr(run, "run_child", lambda *args, **kwargs: result)
    code = run.main(["--workload", "serve", "--seed", "5", "--seconds", "0.2", "--size", "tiny"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert "check failed: serve: broken on purpose" in out
