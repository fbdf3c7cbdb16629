"""Experiment harness: regenerate every figure and table of the paper.

This package exports its execution port only, because
``repro.workloads.spec`` sweeps through it:

* :mod:`~repro.experiments.executor` — a serial loop and one process pool
  behind one ``Executor`` protocol,
* :mod:`~repro.experiments.artifacts` — content-addressed per-cell
  result store (``--cache``): skip finished cells, resume interrupted
  sweeps, re-render without recomputation,
* :mod:`~repro.experiments.runner` — seeded parameter sweeps with
  mean/std aggregation over repeated runs.

The experiments are imported from their modules: :mod:`~.paper` (Figs.
8–11, the ablations and the scaling sweeps), :mod:`~.comparisons` (§VI-E),
:mod:`~.multievent` and :mod:`~.repair`. Each returns a
:class:`repro.metrics.report.Table` of the series the paper plots.
"""

from repro.experiments.executor import (
    Executor,
    ExecutorSpec,
    PoolExecutor,
    SerialExecutor,
    parse_executor_spec,
    resolve_executor,
)
from repro.experiments.artifacts import (
    ArtifactStore,
    CachingExecutor,
    write_json_atomic,
)
from repro.experiments.runner import (
    SweepCell,
    SweepResult,
    SweepWorkerError,
    aggregate_runs,
    run_cells,
    run_sweep,
)

__all__ = [
    "Executor",
    "ExecutorSpec",
    "SerialExecutor",
    "PoolExecutor",
    "parse_executor_spec",
    "resolve_executor",
    "ArtifactStore",
    "CachingExecutor",
    "write_json_atomic",
    "run_sweep",
    "run_cells",
    "aggregate_runs",
    "SweepResult",
    "SweepCell",
    "SweepWorkerError",
]
