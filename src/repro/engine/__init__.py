"""Shared execution engine: executors, the staged pipeline, telemetry.

This layer factors the "how it runs" concerns out of the "what it
computes" modules. :mod:`repro.selection` and :mod:`repro.service` both
execute large batches of independent model fits; the engine gives them
one executor abstraction (serial or a reused process pool), one staged
pipeline for Figure 4 selection, and one telemetry recorder, so the
paper's production claims — hundreds of candidates per series, fanned
out across thousands of workloads — rest on a single tested substrate.
"""

from . import kernels
from .executor import (
    ExecutionPolicy,
    Executor,
    PayloadRef,
    PoolExecutor,
    SerialExecutor,
    TaskReport,
    batch_task,
    default_executor,
    resolve_payload,
    serialized_size,
    shutdown_default_executors,
)
from .pipeline import (
    PIPELINE_STAGES,
    SelectionContext,
    new_context,
    run_pipeline,
    run_pipeline_batch,
    stage_augment,
    stage_branch_choose,
    stage_characterise,
    stage_enumerate,
    stage_refit,
    stage_repair,
    stage_score,
    stage_split,
)
from .telemetry import RunTrace, StageEvent

__all__ = [
    "kernels",
    "ExecutionPolicy",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "TaskReport",
    "PayloadRef",
    "batch_task",
    "resolve_payload",
    "serialized_size",
    "default_executor",
    "shutdown_default_executors",
    "RunTrace",
    "StageEvent",
    "SelectionContext",
    "new_context",
    "run_pipeline",
    "run_pipeline_batch",
    "PIPELINE_STAGES",
    "stage_repair",
    "stage_split",
    "stage_characterise",
    "stage_enumerate",
    "stage_score",
    "stage_augment",
    "stage_branch_choose",
    "stage_refit",
]
