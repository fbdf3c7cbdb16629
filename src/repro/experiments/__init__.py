"""Experiment harness: regenerate every figure and table of the paper.

This package exports its execution port only, lazily (nothing is
imported until a name is used); ``repro.workloads.spec`` imports the
port's modules inside the functions that sweep through it:

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

from repro._exports import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "repro.experiments.executor": (
            "Executor",
            "ExecutorSpec",
            "SerialExecutor",
            "PoolExecutor",
            "parse_executor_spec",
            "resolve_executor",
        ),
        "repro.experiments.artifacts": (
            "ArtifactStore",
            "CachingExecutor",
            "write_json_atomic",
        ),
        "repro.experiments.runner": (
            "run_sweep",
            "run_cells",
            "aggregate_runs",
            "SweepResult",
            "SweepCell",
            "SweepWorkerError",
        ),
    },
)
