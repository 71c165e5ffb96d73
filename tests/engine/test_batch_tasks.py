"""Batch tasks: one call over many tasks, reported exactly like plain tasks.

A :func:`~repro.engine.executor.batch_task` takes a list of tasks and
returns one ``(value, seconds)`` per task. Fault injection, retries,
per-task error capture and report order must not notice the difference:
every scenario below runs the same work as a plain task and as a batch
task and compares the reports.
"""

import pytest

from repro.engine.executor import ExecutionPolicy, PoolExecutor, SerialExecutor, batch_task
from repro.faults.plan import FaultInjector, FaultKind, FaultPlan, FaultRule

#: Calls each batch received (serial runs only: the list lives in this process).
BATCH_CALLS: list[list[int]] = []


def square(x):
    if x < 0:
        raise ValueError(f"negative input {x}")
    return x * x


@batch_task
def square_batch(tasks):
    BATCH_CALLS.append(list(tasks))
    out = []
    for x in tasks:
        try:
            out.append((square(x), 0.001))
        except Exception as exc:
            out.append((exc, 0.001))
    return out


@batch_task
def broken_batch(tasks):
    raise RuntimeError("batch lost")


def broken(x):
    raise RuntimeError("batch lost")


def injector(*rules):
    return FaultInjector(FaultPlan(rules=tuple(FaultRule(site="executor.submit", **r)
                                               for r in rules)))


def outcome(reports):
    return [(r.index, r.value, r.error, r.timed_out, r.worker == "chaos") for r in reports]


SCENARIOS = {
    "clean": dict(tasks=[1, 2, 3, 4, 5]),
    "task-errors": dict(tasks=[1, -2, 3, -4, 5]),
    "injected": dict(
        tasks=[1, 2, 3, 4, 5, 6],
        rules=[
            dict(kind=FaultKind.TRANSIENT_ERROR, every=2, limit=2),
            dict(kind=FaultKind.WORKER_CRASH, every=1, start=4, limit=1),
            dict(kind=FaultKind.SLOW_CALL, every=1, start=5, limit=1),
        ],
    ),
    "retried": dict(
        tasks=[1, -2, 3, 4, 5],
        rules=[dict(kind=FaultKind.TRANSIENT_ERROR, every=1, limit=3)],
        policy=ExecutionPolicy(task_retries=2),
    ),
}


def make(kind, scenario):
    rules = scenario.get("rules")
    kwargs = dict(policy=scenario.get("policy"), injector=injector(*rules) if rules else None)
    if kind == "serial":
        return SerialExecutor(**kwargs)
    return PoolExecutor(max_workers=2, chunksize=2, **kwargs)


@pytest.mark.parametrize("kind", ["serial", "pool"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_batch_reports_equal_plain_reports(kind, name):
    scenario = SCENARIOS[name]
    plain_exec, batch_exec = make(kind, scenario), make(kind, scenario)
    try:
        plain = plain_exec.run(square, scenario["tasks"])
        batched = batch_exec.run(square_batch, scenario["tasks"])
    finally:
        plain_exec.close()
        batch_exec.close()
    assert outcome(batched) == outcome(plain)
    assert [r.index for r in batched] == list(range(len(scenario["tasks"])))
    assert batch_exec.fault_counters == plain_exec.fault_counters
    if kind == "serial":
        assert {r.worker for r in batched if r.worker != "chaos"} <= {"serial"}


def test_serial_batches_every_live_task_of_an_attempt():
    BATCH_CALLS.clear()
    executor = SerialExecutor(
        policy=ExecutionPolicy(task_retries=1),
        injector=injector(dict(kind=FaultKind.TRANSIENT_ERROR, every=2, limit=2)),
    )
    reports = executor.run(square_batch, [1, 2, 3, 4, 5])
    assert [r.value for r in reports] == [1, 4, 9, 16, 25]
    # The first submission minus the injected victims, then the retry round.
    assert BATCH_CALLS == [[2, 4, 5], [1, 3]]


def test_pool_batches_each_chunk():
    with PoolExecutor(max_workers=2, chunksize=3) as pool:
        reports = pool.run(square_batch, list(range(7)))
    assert [r.value for r in reports] == [x * x for x in range(7)]
    workers = {}
    for r in reports:
        workers.setdefault(r.worker, []).append(r.index)
    # Each chunk ran whole in one worker call.
    for indices in workers.values():
        for chunk in ([0, 1, 2], [3, 4, 5], [6]):
            assert set(chunk) <= set(indices) or not set(chunk) & set(indices)


@pytest.mark.parametrize("kind", ["serial", "pool"])
def test_a_raising_batch_fails_each_task_like_a_raising_task(kind):
    scenario = {"policy": ExecutionPolicy(task_retries=1)}
    plain_exec, batch_exec = make(kind, scenario), make(kind, scenario)
    try:
        plain = plain_exec.run(broken, [1, 2, 3])
        batched = batch_exec.run(broken_batch, [1, 2, 3])
    finally:
        plain_exec.close()
        batch_exec.close()
    assert outcome(batched) == outcome(plain)
    assert all(r.error == "RuntimeError: batch lost" for r in batched)
    assert batch_exec.fault_counters == plain_exec.fault_counters


def test_task_seconds_come_from_the_batch():
    reports = SerialExecutor().run(square_batch, [1, 2])
    assert [r.seconds for r in reports] == [0.001, 0.001]
