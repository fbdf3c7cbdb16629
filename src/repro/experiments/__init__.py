"""Experiment harness: regenerate every figure and table of the paper.

* :mod:`~repro.experiments.executor` — the execution port: a serial
  loop and one process pool behind one ``Executor`` protocol,
* :mod:`~repro.experiments.artifacts` — content-addressed per-cell
  result store (``--cache``): skip finished cells, resume interrupted
  sweeps, re-render without recomputation,
* :mod:`~repro.experiments.runner` — seeded parameter sweeps with
  mean/std aggregation over repeated runs,
* :mod:`~repro.experiments.figures` — Figs. 8, 9, 10, 11 (§VII),
* :mod:`~repro.experiments.comparisons` — the §VI-E tables, measured by
  simulation next to their closed forms,
* :mod:`~repro.experiments.ablations` — sweeps over the tuning knobs
  (z, a, g, c) the paper highlights as the reliability/message trade-off.

Every entry point returns a :class:`repro.metrics.report.Table` whose rows
are the series the paper plots; the CLI prints them and
``tests/test_experiments.py`` asserts the qualitative shape (who wins,
orderings, crossovers).
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
from repro.experiments.figures import (
    DEFAULT_GRID,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure11,
)
from repro.experiments.comparisons import (
    measured_comparison,
    run_all_algorithms_once,
)
from repro.experiments.ablations import (
    sweep_fanout_constant,
    sweep_link_redundancy,
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
    "DEFAULT_GRID",
    "run_figure8",
    "run_figure9",
    "run_figure10",
    "run_figure11",
    "measured_comparison",
    "run_all_algorithms_once",
    "sweep_fanout_constant",
    "sweep_link_redundancy",
]
