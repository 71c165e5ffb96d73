"""Task executors: the engine's parallel substrate.

The paper scales model selection to "1000's of workloads" because "gains
are also achieved by parallel processing the models" (Section 8). This
module provides the execution layer that makes those gains reusable
across the codebase instead of being re-implemented (and a process pool
re-spawned) at every grid call:

* :class:`SerialExecutor` — runs tasks in-process, in order. The
  reference implementation: every parallel path must produce identical
  results to it.
* :class:`PoolExecutor` — a :class:`concurrent.futures.ProcessPoolExecutor`
  wrapper whose worker pool is created lazily on first use and **reused**
  across calls. Spawning workers costs ~100 ms each plus a fresh import
  of numpy/scipy; amortising that across the hundreds of
  ``evaluate_grid`` calls an estate report makes is where the wall-clock
  win lives. Supports configurable chunking and per-task timeout.

Both executors implement one method, :meth:`Executor.run`, which never
raises for a task failure: every task yields a :class:`TaskReport`
carrying either the value or the captured error, plus its duration and
the worker that ran it (food for :mod:`repro.engine.telemetry`).

A function marked with :func:`batch_task` takes many tasks at once, so
they can share work (the estate's lockstep HES fits): the serial
executor hands every live task of an attempt to one call, a pool hands
each chunk to one call in its worker. Reports, fault injection and
retries are the same as for plain tasks.

Both executors also implement a **broadcast data plane**. A grid sweep
scores hundreds of ~100-byte candidate specs against one shared
``(train, test, shock_matrix, shock_future)`` bundle; shipping that
bundle inside every task tuple pickles the same arrays hundreds of times
per sweep. :meth:`Executor.broadcast` ships the bundle once per
(executor, content-fingerprint) and returns a tiny :class:`PayloadRef`;
tasks carry only the ref, and workers resolve it through a per-process
registry (:func:`resolve_payload`) that caches the deserialised bundle
until LRU eviction. Broken-pool recovery is transparent: the broadcast
spill file outlives the pool, so replacement workers simply re-read it.

``default_executor(n_jobs)`` maps the long-standing ``n_jobs`` knob onto
a process-wide cache of shared executors, so code that still talks in
``n_jobs`` transparently shares one pool per worker count (and per
chunking/timeout configuration).
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from ..exceptions import DataError

__all__ = [
    "TaskReport",
    "PayloadRef",
    "batch_task",
    "ExecutionPolicy",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "resolve_payload",
    "serialized_size",
    "default_executor",
    "shutdown_default_executors",
]


@dataclass(frozen=True)
class ExecutionPolicy:
    """Resilience policy of an executor — what happens when tasks fail.

    The broken-pool recovery that used to be hard-wired into
    :class:`PoolExecutor` is generalised here, joined by bounded re-try
    of failed tasks (the gap the fault plane's ``executor.submit``
    injection exposed: one transient worker error permanently failed its
    workload even though a second attempt would have succeeded).

    Parameters
    ----------
    task_retries:
        How many extra rounds failed tasks are re-submitted for (``0``
        preserves the historical fail-fast behaviour). Tasks that
        succeeded are never re-run; each retry round re-submits only the
        still-failed ones.
    retry_timed_out:
        Whether timed-out tasks are eligible for retry. Off by default:
        a task that blew its deadline once usually will again, and its
        worker may still be busy with the abandoned attempt.
    rebuild_broken_pool:
        Replace the worker pool transparently when a worker dies hard
        (the pre-policy behaviour). ``False`` propagates the
        :class:`~concurrent.futures.process.BrokenProcessPool` instead —
        for callers that prefer to crash loudly.
    """

    task_retries: int = 0
    retry_timed_out: bool = False
    rebuild_broken_pool: bool = True

    def __post_init__(self) -> None:
        if self.task_retries < 0:
            raise DataError(f"task_retries must be >= 0, got {self.task_retries}")


@dataclass(frozen=True)
class TaskReport:
    """What happened to one submitted task.

    Attributes
    ----------
    index:
        Position of the task in the submitted sequence (results are
        always returned in submission order).
    value:
        The task's return value, or ``None`` when it failed or timed out.
    error:
        Captured failure description (empty string on success).
    seconds:
        Wall-clock duration of the task body. Zero for timed-out tasks,
        whose true duration is unknown to the parent.
    worker:
        Identifier of the worker that ran the task (``"serial"`` or the
        worker process PID).
    timed_out:
        True when the task exceeded the executor's deadline. The worker
        process is *not* killed — the result is abandoned, not the
        computation — so a timed-out task may still occupy its worker
        until it finishes.
    """

    index: int
    value: object
    error: str = ""
    seconds: float = 0.0
    worker: str = "serial"
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return not self.error and not self.timed_out


# ---------------------------------------------------------------------------
# Broadcast data plane
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PayloadRef:
    """Handle to a broadcast payload — what tasks carry instead of data.

    Attributes
    ----------
    key:
        Content fingerprint (SHA-1 of the pickled payload). Identical
        payloads broadcast twice share one key, one spill file and one
        per-worker registry slot.
    path:
        Spill file holding the pickled payload for cross-process
        transport; ``None`` for in-process (serial) broadcasts, which
        live only in the parent's registry.
    nbytes:
        Serialized payload size — the bytes the broadcast moved *once*
        instead of once per task.
    """

    key: str
    path: str | None = None
    nbytes: int = 0


#: Per-process payload registry: key → deserialised payload, LRU order.
#: Lives at module level so pool workers (which import this module) and
#: the serial executor share one resolution path.
_PAYLOAD_REGISTRY: OrderedDict[str, object] = OrderedDict()

#: How many distinct payloads a worker keeps before evicting the least
#: recently used. Eight comfortably covers one estate worker cycling
#: through a handful of series; raise it for unusual fan-in patterns.
PAYLOAD_REGISTRY_CAPACITY = 8

_MISSING = object()


def _install_payload(key: str, payload: object) -> None:
    """Cache a payload in this process's registry, evicting LRU overflow."""
    _PAYLOAD_REGISTRY[key] = payload
    _PAYLOAD_REGISTRY.move_to_end(key)
    while len(_PAYLOAD_REGISTRY) > PAYLOAD_REGISTRY_CAPACITY:
        _PAYLOAD_REGISTRY.popitem(last=False)


def resolve_payload(ref: PayloadRef) -> object:
    """Fetch a broadcast payload in the current process.

    Registry hit: free. Miss: the payload is loaded from the spill file
    and cached, so each worker deserialises a given payload at most once
    per (pool, fingerprint) — re-reads only happen after LRU eviction or
    when a replacement worker joins a recovered pool.
    """
    payload = _PAYLOAD_REGISTRY.get(ref.key, _MISSING)
    if payload is not _MISSING:
        _PAYLOAD_REGISTRY.move_to_end(ref.key)
        return payload
    if ref.path is None:
        raise DataError(
            f"payload {ref.key[:12]} is not in this process's registry and "
            "has no spill file (serial broadcasts cannot cross processes)"
        )
    try:
        with open(ref.path, "rb") as fh:
            payload = pickle.load(fh)
    except OSError as exc:
        raise DataError(f"payload spill file unreadable: {exc}") from exc
    _install_payload(ref.key, payload)
    return payload


def payload_registry_keys() -> list[str]:
    """Fingerprints currently cached in this process (MRU last)."""
    return list(_PAYLOAD_REGISTRY)


def serialized_size(obj: object) -> int:
    """Pickled size of ``obj`` — the bytes one task dispatch would ship."""
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_captured(fn: Callable, task, index: int) -> TaskReport:
    """Execute one task, converting any exception into a report.

    Runs inside the worker process for :class:`PoolExecutor` (must stay
    module-level picklable) and inline for :class:`SerialExecutor`.
    """
    worker = str(os.getpid())
    started = time.perf_counter()
    try:
        value = fn(task)
    except Exception as exc:  # capture, never propagate out of a worker
        return TaskReport(
            index=index,
            value=None,
            error=_describe(exc),
            seconds=time.perf_counter() - started,
            worker=worker,
        )
    return TaskReport(
        index=index,
        value=value,
        seconds=time.perf_counter() - started,
        worker=worker,
    )


def batch_task(fn: Callable) -> Callable:
    """Mark ``fn`` as a batch task for :meth:`Executor.run`.

    A batch task takes a list of tasks and returns one ``(value,
    seconds)`` per task, in order, where ``seconds`` is the task's share
    of the call. A value that is an exception is that task's failure,
    reported exactly as a plain task's raised exception is. If the call
    itself raises, every task it was given fails with that error.
    """
    fn.batch_task = True
    return fn


def _run_each(fn: Callable, pairs: list[tuple[int, object]]) -> list[TaskReport]:
    """Run ``fn`` once per ``(index, task)`` pair (plain tasks)."""
    return [_run_captured(fn, task, index) for index, task in pairs]


def _run_batch(fn: Callable, pairs: list[tuple[int, object]]) -> list[TaskReport]:
    """Run a :func:`batch_task` once over all ``(index, task)`` pairs."""
    worker = str(os.getpid())
    started = time.perf_counter()
    try:
        outcomes = fn([task for __, task in pairs])
    except Exception as exc:
        seconds = (time.perf_counter() - started) / len(pairs)
        return [
            TaskReport(index=index, value=None, error=_describe(exc), seconds=seconds,
                       worker=worker)
            for index, __ in pairs
        ]
    reports = []
    for (index, __), (value, seconds) in zip(pairs, outcomes, strict=True):
        if isinstance(value, Exception):
            reports.append(TaskReport(index=index, value=None, error=_describe(value),
                                      seconds=seconds, worker=worker))
        else:
            reports.append(TaskReport(index=index, value=value, seconds=seconds, worker=worker))
    return reports


#: Last kernel-counter snapshot this worker reported back to the parent.
#: ``None`` means "never reported": the first chunk then ships the whole
#: process history, which is what charges pool-init warm-compilation to
#: the run that created the pool instead of losing it.
_KERNEL_REPORTED: dict[str, float] | None = None


def _pool_worker_init() -> None:
    """Pool-worker initializer: JIT-compile every kernel before the first task."""
    from . import kernels as engine_kernels

    engine_kernels.warm_worker_init()


def _drain_worker_kernel_delta() -> dict[str, float]:
    """Kernel-counter movement in this worker since its last report."""
    global _KERNEL_REPORTED
    from . import kernels as engine_kernels

    now = engine_kernels.snapshot()
    if _KERNEL_REPORTED is None:
        moved = {key: value for key, value in now.items() if value}
    else:
        moved = engine_kernels.delta(_KERNEL_REPORTED, now)
    _KERNEL_REPORTED = now
    return moved


def _run_chunk(
    runner: Callable, fn: Callable, chunk: list[tuple[int, object]]
) -> tuple[list[TaskReport], dict[str, float]]:
    """Worker-side entry point: run one chunk of (index, task) pairs.

    ``runner`` is :func:`_run_each` or :func:`_run_batch`. Returns the
    task reports plus this worker's kernel-counter delta, so
    compiled-kernel telemetry rides the existing result channel instead
    of needing a second IPC round.
    """
    return runner(fn, chunk), _drain_worker_kernel_delta()


class Executor:
    """Interface shared by :class:`SerialExecutor` and :class:`PoolExecutor`.

    :meth:`run` is a template method: it applies fault injection (when an
    injector is attached), delegates the surviving tasks to the
    subclass's :meth:`_execute`, then applies the
    :class:`ExecutionPolicy`'s bounded retry to whatever failed.
    Subclasses only implement :meth:`_execute` over ``(index, task)``
    pairs with a runner (:func:`_run_each` or :func:`_run_batch`);
    reports may come back in any order.
    """

    #: Resilience policy; ``None`` means fail-fast (historical behaviour).
    policy: ExecutionPolicy | None = None
    #: Fault injector for the ``executor.submit`` hook point; ``None``
    #: (or an injector with an empty plan) makes :meth:`run` behave
    #: bit-for-bit as if the hook did not exist.
    injector = None

    def _fault_count(self, key: str, n: int = 1) -> None:
        counters = getattr(self, "fault_counters", None)
        if counters is None:
            counters = self.fault_counters = {}
        counters[key] = counters.get(key, 0) + n

    def _execute(
        self, runner: Callable, fn: Callable, pairs: list[tuple[int, object]]
    ) -> list[TaskReport]:
        """Run ``fn`` over ``(index, task)`` pairs through ``runner``; any order."""
        raise NotImplementedError

    def _partition_injected(
        self, pairs: list[tuple[int, object]]
    ) -> tuple[list[tuple[int, object]], dict[int, TaskReport]]:
        """Ask the injector about each task; fabricate reports for victims.

        Injected outcomes become synthetic :class:`TaskReport`s attributed
        to worker ``"chaos"`` — a crash reads like a dead worker, a slow
        call like a missed deadline, an error like a transient task
        failure — so downstream telemetry and retry treat them exactly
        like the real thing.
        """
        injector = getattr(self, "injector", None)
        if injector is None or not getattr(injector, "active", False):
            return pairs, {}
        live: list[tuple[int, object]] = []
        injected: dict[int, TaskReport] = {}
        for index, task in pairs:
            outcome = injector.task_outcome("executor.submit")
            if outcome is None:
                live.append((index, task))
            elif outcome == "crash":
                injected[index] = TaskReport(
                    index=index, value=None,
                    error="injected fault: worker died", worker="chaos",
                )
            elif outcome == "slow":
                injected[index] = TaskReport(
                    index=index, value=None,
                    error="injected fault: deadline missed", worker="chaos",
                    timed_out=True,
                )
            else:
                injected[index] = TaskReport(
                    index=index, value=None,
                    error="InjectedFault: injected transient task error",
                    worker="chaos",
                )
        return live, injected

    def _retryable(self, report: TaskReport, policy: ExecutionPolicy) -> bool:
        if report.ok:
            return False
        return policy.retry_timed_out or not report.timed_out

    def run(self, fn: Callable, tasks: Sequence) -> list[TaskReport]:
        """Apply ``fn`` to every task; reports in submission order.

        A :func:`batch_task` runs once per attempt on the serial executor
        (the first submission, then each retry round's failures) and once
        per chunk on a pool.
        """
        runner = _run_batch if getattr(fn, "batch_task", False) else _run_each
        tasks = list(tasks)
        if not tasks:
            return []
        pairs, injected = self._partition_injected(list(enumerate(tasks)))
        reports: dict[int, TaskReport] = dict(injected)
        if pairs:
            for report in self._execute(runner, fn, pairs):
                reports[report.index] = report
        policy = getattr(self, "policy", None)
        if policy is not None and policy.task_retries:
            for __ in range(policy.task_retries):
                failed = [
                    index for index in sorted(reports)
                    if self._retryable(reports[index], policy)
                ]
                if not failed:
                    break
                # Retries run the task for real: injection applies to the
                # original submission only, so a transient injected error
                # is recoverable — which is the point of the policy.
                self._fault_count("tasks_retried", len(failed))
                for report in self._execute(runner, fn, [(i, tasks[i]) for i in failed]):
                    if report.ok:
                        self._fault_count("tasks_recovered")
                    reports[report.index] = report
            exhausted = sum(
                1 for report in reports.values() if self._retryable(report, policy)
            )
            if exhausted:
                self._fault_count("task_retries_exhausted", exhausted)
        return [reports[i] for i in range(len(tasks))]

    def broadcast(self, payload: object) -> PayloadRef:
        """Ship ``payload`` to every worker once; tasks carry the ref.

        Re-broadcasting identical content is a cache hit and moves no
        bytes. Task functions recover the payload with
        :func:`resolve_payload`.
        """
        raise NotImplementedError

    def map(self, fn: Callable, tasks: Sequence) -> list:
        """Like :meth:`run` but unwraps values, re-raising the first failure."""
        out = []
        for report in self.run(fn, tasks):
            if not report.ok:
                raise DataError(f"task {report.index} failed: {report.error or 'timeout'}")
            out.append(report.value)
        return out

    def drain_kernel_counters(self) -> dict[str, float]:
        """Take (and clear) kernel-counter deltas reported by workers.

        Serial execution runs kernels in the parent process, where the
        pipeline's own snapshot already counts them — so the base
        implementation has nothing to report and returns ``{}``.
        """
        return {}

    def close(self, force: bool = False) -> None:
        """Release worker resources (no-op for serial execution)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every task inline, in submission order.

    The semantics baseline: grid evaluation and estate fan-out on any
    other executor must produce results identical to this one — including
    the broadcast plane, which here installs the payload straight into
    the in-process registry (same fingerprinting, no spill file), so
    serial-vs-pool parity tests exercise one code path end to end.
    """

    def __init__(
        self,
        policy: ExecutionPolicy | None = None,
        injector=None,
    ) -> None:
        self.policy = policy
        self.injector = injector
        self.fault_counters: dict[str, int] = {}
        self.bytes_broadcast = 0
        self.broadcasts_created = 0
        self.broadcast_hits = 0

    def broadcast(self, payload: object) -> PayloadRef:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        key = hashlib.sha1(blob).hexdigest()
        if key in _PAYLOAD_REGISTRY:
            self.broadcast_hits += 1
            _PAYLOAD_REGISTRY.move_to_end(key)
        else:
            _install_payload(key, payload)
            self.broadcasts_created += 1
            self.bytes_broadcast += len(blob)
        return PayloadRef(key=key, path=None, nbytes=len(blob))

    def _execute(
        self, runner: Callable, fn: Callable, pairs: list[tuple[int, object]]
    ) -> list[TaskReport]:
        # Match pool semantics: kernels are warm before the first task runs
        # (for numpy backends this is a microsecond no-op after the first call).
        from . import kernels as engine_kernels

        engine_kernels.warm_worker_init()
        # In-process execution: label the worker "serial" so telemetry
        # distinguishes it from pool workers at a glance.
        return [replace(report, worker="serial") for report in runner(fn, pairs)]


class PoolExecutor(Executor):
    """Process-pool executor with a lazily created, reused worker pool.

    Parameters
    ----------
    max_workers:
        Worker process count; ``None`` or ``0`` means one per CPU.
    chunksize:
        Tasks per worker dispatch. Larger chunks amortise IPC overhead
        for cheap tasks; 1 gives the finest timeout granularity. The
        default adapts: ``max(1, len(tasks) // (4 * max_workers))``
        capped at 8, mirroring what ``ProcessPoolExecutor.map`` users
        typically hand-tune to.
    timeout:
        Per-task deadline in seconds (``None`` = wait forever). Applied
        per dispatched chunk as ``timeout * len(chunk)``: a chunk that
        misses its deadline yields timed-out reports for all its tasks.
        The worker is left to finish in the background — the pool is not
        torn down — so prefer ``chunksize=1`` when timeouts matter.

    The underlying :class:`~concurrent.futures.ProcessPoolExecutor` is
    created on the first :meth:`run` and kept for subsequent calls;
    ``pools_created`` counts how many times a pool was (re)built, which
    tests use to assert reuse. A broken pool (a worker died hard) is
    replaced transparently on the next call.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        chunksize: int | None = None,
        timeout: float | None = None,
        policy: ExecutionPolicy | None = None,
        injector=None,
    ) -> None:
        if max_workers is not None and max_workers < 0:
            raise DataError(f"max_workers must be >= 0, got {max_workers}")
        if chunksize is not None and chunksize < 1:
            raise DataError(f"chunksize must be >= 1, got {chunksize}")
        if timeout is not None and timeout <= 0:
            raise DataError(f"timeout must be positive, got {timeout}")
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.chunksize = chunksize
        self.timeout = timeout
        self.policy = policy
        self.injector = injector
        self.fault_counters: dict[str, int] = {}
        self.pools_created = 0
        self.tasks_dispatched = 0
        self.bytes_broadcast = 0
        self.broadcasts_created = 0
        self.broadcast_hits = 0
        self._pool: ProcessPoolExecutor | None = None
        self._broadcasts: dict[str, PayloadRef] = {}
        self._close_lock = threading.Lock()
        #: Kernel-counter deltas reported by workers, accumulated until a
        #: trace-owning caller drains them (see engine.kernels policy).
        self.kernel_counters: dict[str, float] = {}

    # ------------------------------------------------------------------
    def broadcast(self, payload: object) -> PayloadRef:
        """Spill the payload to a file once per content fingerprint.

        Workers read and cache it lazily on first resolve, so the bytes
        cross the process boundary once per (pool, fingerprint) rather
        than once per task. The spill file outlives a broken pool:
        replacement workers re-read it transparently, no re-broadcast
        bookkeeping required.
        """
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        key = hashlib.sha1(blob).hexdigest()
        ref = self._broadcasts.get(key)
        if ref is not None:
            self.broadcast_hits += 1
            return ref
        fd, path = tempfile.mkstemp(prefix=f"repro-payload-{key[:12]}-", suffix=".pkl")
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        ref = PayloadRef(key=key, path=path, nbytes=len(blob))
        self._broadcasts[key] = ref
        self.broadcasts_created += 1
        self.bytes_broadcast += len(blob)
        return ref

    def _drop_broadcasts(self) -> None:
        for ref in self._broadcasts.values():
            if ref.path is not None:
                try:
                    os.unlink(ref.path)
                except OSError:
                    pass
        self._broadcasts.clear()

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, initializer=_pool_worker_init
            )
            self.pools_created += 1
        return self._pool

    def _chunk_size_for(self, n_tasks: int) -> int:
        if self.chunksize is not None:
            return self.chunksize
        return max(1, min(8, n_tasks // (4 * self.max_workers)))

    @property
    def _rebuild_broken(self) -> bool:
        return self.policy.rebuild_broken_pool if self.policy is not None else True

    def _execute(
        self, runner: Callable, fn: Callable, pairs: list[tuple[int, object]]
    ) -> list[TaskReport]:
        size = self._chunk_size_for(len(pairs))
        chunks = [pairs[i : i + size] for i in range(0, len(pairs), size)]
        try:
            pool = self._ensure_pool()
            futures = [pool.submit(_run_chunk, runner, fn, chunk) for chunk in chunks]
        except BrokenProcessPool:
            if not self._rebuild_broken:
                raise
            self._reset_pool()
            self._fault_count("pools_rebuilt")
            pool = self._ensure_pool()
            futures = [pool.submit(_run_chunk, runner, fn, chunk) for chunk in chunks]
        self.tasks_dispatched += len(pairs)

        reports: dict[int, TaskReport] = {}
        broken = False
        for chunk, future in zip(chunks, futures):
            deadline = self.timeout * len(chunk) if self.timeout else None
            try:
                chunk_reports, kernel_delta = future.result(timeout=deadline)
                for report in chunk_reports:
                    reports[report.index] = report
                for key, value in kernel_delta.items():
                    self.kernel_counters[key] = self.kernel_counters.get(key, 0.0) + value
            except FuturesTimeoutError:
                future.cancel()
                for index, __ in chunk:
                    reports[index] = TaskReport(
                        index=index,
                        value=None,
                        error=f"timed out after {deadline:g}s",
                        worker="?",
                        timed_out=True,
                    )
            except BrokenProcessPool as exc:
                broken = True
                for index, __ in chunk:
                    reports.setdefault(
                        index,
                        TaskReport(
                            index=index,
                            value=None,
                            error=f"worker died: {exc}",
                            worker="?",
                        ),
                    )
        if broken and self._rebuild_broken:
            # Tear the corpse down now; the next _execute lazily rebuilds.
            self._reset_pool()
            self._fault_count("pools_rebuilt")
        return [reports[index] for index, __ in pairs]

    def drain_kernel_counters(self) -> dict[str, float]:
        """Take (and clear) the kernel-counter deltas workers reported."""
        out = self.kernel_counters
        self.kernel_counters = {}
        return out

    # ------------------------------------------------------------------
    def _reset_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self, force: bool = False) -> None:
        """Shut the pool down and release broadcast spill files.

        ``force=True`` terminates worker processes outright (used after
        timeout tests abandon a still-running task); otherwise pending
        work is cancelled and workers exit once idle. Idempotent and
        thread-safe: a caller's own ``close()`` cannot race the
        interpreter-exit :func:`shutdown_default_executors` hook.
        """
        with self._close_lock:
            self._drop_broadcasts()
            if self._pool is None:
                return
            if force:
                processes = list(getattr(self._pool, "_processes", {}).values())
                self._pool.shutdown(wait=False, cancel_futures=True)
                for proc in processes:
                    proc.terminate()
            else:
                self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


# ---------------------------------------------------------------------------
# Shared executors for the n_jobs convention
# ---------------------------------------------------------------------------
_SHARED: dict[tuple[int, int | None, float | None], PoolExecutor] = {}
_SHARED_LOCK = threading.Lock()
_SERIAL = SerialExecutor()


def default_executor(
    n_jobs: int = 1,
    chunksize: int | None = None,
    timeout: float | None = None,
) -> Executor:
    """The process-wide shared executor for an ``n_jobs`` worker count.

    ``n_jobs <= 1`` returns the shared :class:`SerialExecutor`;
    ``n_jobs == 0`` means one worker per CPU. Pool executors are cached
    per effective **configuration** — worker count, chunking and
    timeout — so every caller asking for the same parallelism shares one
    pool (repeated selections never pay a per-call pool spawn) while
    differently-configured callers never silently share a pool whose
    chunking or deadline semantics they did not ask for.
    """
    if n_jobs < 0:
        raise DataError(f"n_jobs must be >= 0, got {n_jobs}")
    workers = os.cpu_count() or 1 if n_jobs == 0 else n_jobs
    if workers <= 1:
        return _SERIAL
    cache_key = (workers, chunksize, timeout)
    with _SHARED_LOCK:
        if cache_key not in _SHARED:
            _SHARED[cache_key] = PoolExecutor(
                max_workers=workers, chunksize=chunksize, timeout=timeout
            )
        return _SHARED[cache_key]


def shutdown_default_executors() -> None:
    """Close every cached shared pool (tests and interpreter exit).

    Idempotent and thread-safe: each pool is popped from the cache under
    a lock before being closed, and :meth:`PoolExecutor.close` itself is
    idempotent, so the atexit hook cannot race (or double-close) a pool a
    benchmark already shut down explicitly.
    """
    while True:
        with _SHARED_LOCK:
            if not _SHARED:
                return
            __, executor = _SHARED.popitem()
        executor.close()


atexit.register(shutdown_default_executors)
