"""Seeded sweeps with aggregation over a pluggable execution port.

An experiment is a function ``run(point, seed) -> dict[str, float]``.
:func:`run_sweep` evaluates it at every grid point with ``runs`` derived
seeds each and aggregates the metric dict per point (mean and standard
deviation). Seeds are derived deterministically from one master seed, so
whole sweeps are reproducible and individually re-runnable.

Seeding contract
----------------
The seed for run ``j`` at grid point ``x`` is::

    derive_seed(master_seed, f"{label}/{x}/{j}")

:func:`~repro.sim.rng.derive_seed` is SHA-256 based, so the mapping is
stable across Python versions, platforms and *processes* — a worker in a
``multiprocessing`` pool re-derives exactly the seed the serial loop
would have used. This is what makes ``run_sweep(...,
executor="pool:N")`` bit-identical to the serial path for every ``N``:
each (point, run) cell is a pure function of ``(master_seed, label,
point, j)``, and aggregation always happens in canonical (point, run)
order regardless of completion order or worker count.

Label-collision caveat: two sweeps sharing the same ``label`` (e.g. the
default ``"sweep"``) *and* a grid point reuse seeds cell-for-cell. Give
each experiment a distinct label when their grids can overlap and the
runs must be statistically independent.

Execution backends
------------------
How cells are evaluated is the :class:`~repro.experiments.executor.
Executor` port's concern — ``executor=None`` (serial, the default),
``"pool:N"`` (a pool of ``N`` worker processes), or any object
implementing the protocol (e.g. a
:class:`~repro.experiments.artifacts.CachingExecutor`).
Every entry point hands its ``executor`` argument down unchanged to
:func:`run_cells`, the one place a spec is resolved: an executor built
there from a string or ``None`` is closed there when the call returns
or raises; an instance handed in stays the caller's to close. Parallel
backends require the run function to be picklable — a module-level
function, or a :func:`functools.partial` of one with picklable bound
arguments; lambdas and nested closures are rejected with a
:class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ConfigError
from repro.experiments.executor import (
    ExecutorSpec,
    OnResultFn,
    SweepCell,
    SweepWorkerError,
    resolve_executor,
)
from repro.validation import check_finite_grid

__all__ = [
    "RunFn",
    "ProgressFn",
    "SweepResult",
    "SweepCell",
    "SweepWorkerError",
    "aggregate_runs",
    "grouped_progress",
    "run_cells",
    "run_sweep",
]

RunFn = Callable[[Any, int], Mapping[str, float]]

#: Per-point progress callback: ``progress(point, completed_points,
#: total_points)``, invoked once per grid point as soon as all of its
#: runs have finished (completion order under parallel executors,
#: canonical order serially).
ProgressFn = Callable[[Any, int, int], None]


@dataclass
class SweepResult:
    """Aggregated metrics for one sweep.

    ``means`` and ``stds`` are keyed by metric name in sorted order
    (deterministic regardless of ``PYTHONHASHSEED`` and of the key
    insertion order the run function happened to use).
    """

    points: list[float] = field(default_factory=list)
    means: dict[str, list[float]] = field(default_factory=dict)
    stds: dict[str, list[float]] = field(default_factory=dict)
    runs: int = 0

    def metric_names(self) -> list[str]:
        """All aggregated metric names, sorted."""
        return sorted(self.means)


def aggregate_runs(
    samples: Sequence[Mapping[str, float]]
) -> tuple[dict[str, float], dict[str, float]]:
    """Mean (``statistics.fmean``'s arithmetic, inlined) and standard
    deviation per metric over repeated runs.

    Metrics are emitted in sorted key order so the returned dicts (and
    everything serialized from them — sweep tables, figure columns) have
    an ordering independent of ``PYTHONHASHSEED`` and of the order the
    run function built its dict in.
    """
    if not samples:
        raise ConfigError("cannot aggregate zero runs")
    names = sorted(samples[0])
    keys = set(names)
    for sample in samples[1:]:
        if set(sample) != keys:
            raise ConfigError("runs returned inconsistent metric keys")
    runs = len(samples)
    # One row of floats per run, transposed once into one column per metric.
    columns = list(
        zip(*[[float(sample[key]) for key in names] for sample in samples])
    )
    means = {key: math.fsum(column) / runs for key, column in zip(names, columns)}
    stds = (
        {key: statistics.stdev(column) for key, column in zip(names, columns)}
        if runs > 1
        else dict.fromkeys(names, 0.0)
    )
    return means, stds


def grouped_progress(
    progress: ProgressFn | None,
    groups: Sequence[Any],
    cells_per_group: int,
) -> OnResultFn | None:
    """Adapt a per-group ``progress`` callback to a per-cell ``on_result``.

    For a cell list laid out group-major (``cells_per_group`` consecutive
    cells per entry of ``groups``), the returned callback fires
    ``progress(group, completed_groups, len(groups))`` once the last cell
    of a group completes. Returns None when ``progress`` is None.
    """
    if progress is None:
        return None
    remaining = [cells_per_group] * len(groups)
    groups_done = 0

    def on_result(index: int, done: int, total: int) -> None:
        nonlocal groups_done
        group_index = index // cells_per_group
        remaining[group_index] -= 1
        if remaining[group_index] == 0:
            groups_done += 1
            progress(groups[group_index], groups_done, len(groups))

    return on_result


def run_cells(
    run: Callable[[Any, int], Any],
    cells: Sequence[SweepCell],
    *,
    master_seed: int = 0,
    executor: ExecutorSpec = None,
    on_result: OnResultFn | None = None,
) -> list[Any]:
    """Evaluate ``run(cell.arg, seed)`` for every cell; results in order.

    The cell-level entry point behind :func:`run_sweep` — also usable
    directly by experiments whose repetition structure isn't a (grid x
    runs) sweep (paired comparisons, per-algorithm runs). Each cell's
    seed is ``derive_seed(master_seed, cell.seed_name)``, derived inside
    the worker, so results are bit-identical across backends.

    ``executor`` selects the backend (None = serial; ``"pool:N"`` or an
    :class:`~repro.experiments.executor.Executor` instance). One built here from a string or None is closed before
    returning; an instance is left open for its owner.
    ``on_result(index, completed, total)`` is called after each
    *successful* cell (completion order); a failed cell is never
    announced as done. A run-function exception is re-raised as
    :class:`SweepWorkerError` for the canonically first failing cell,
    with the worker traceback attached when it failed in a pool worker.
    """
    resolved = resolve_executor(executor)
    try:
        return resolved.map_cells(
            run, cells, master_seed=master_seed, on_result=on_result
        )
    finally:
        if resolved is not executor:
            resolved.close()


def _columns(
    keys: Iterable[str], rows: Sequence[Mapping[str, float]]
) -> dict[str, list[float]]:
    """Per-metric columns from per-point dicts sharing one key order."""
    return dict(zip(keys, map(list, zip(*[row.values() for row in rows]))))


def run_sweep(
    run: RunFn,
    grid: Sequence[Any],
    *,
    runs: int = 5,
    master_seed: int = 0,
    label: str = "sweep",
    executor: ExecutorSpec = None,
    progress: ProgressFn | None = None,
) -> SweepResult:
    """Evaluate ``run`` at every grid point, ``runs`` times each.

    A point is any value: a numeric one must be finite, any other (a
    protocol name, a failure kind) is taken as it is. Seed for run ``j``
    at point ``x`` is ``derive_seed(master_seed, f"{label}/{x}/{j}")`` —
    independent across points and runs, stable across processes (see the
    module docstring for the full contract and the label-collision
    caveat: sweeps sharing a ``label`` and a grid point reuse seeds).

    ``executor="pool:N"`` (or an Executor instance)
    evaluates the (point, run) cells on ``N`` worker processes; the
    result is bit-identical to serial for every backend and worker count
    because workers re-derive seeds from the contract above and
    aggregation happens in canonical (point, run) order. Parallel
    backends need a picklable run function (module-level or a
    ``functools.partial`` of one). ``progress`` is invoked once per
    completed grid point as ``progress(point, completed_points,
    total_points)``.
    """
    if not grid:
        raise ConfigError("grid must not be empty")
    check_finite_grid(
        point
        for point in grid
        if isinstance(point, (int, float)) and not isinstance(point, bool)
    )
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    cells = [
        SweepCell(
            arg=point,
            seed_name=f"{label}/{point}/{j}",
            describe=f"point={point!r}, run={j}",
        )
        for point in grid
        for j in range(runs)
    ]
    samples = run_cells(
        run,
        cells,
        master_seed=master_seed,
        executor=executor,
        on_result=grouped_progress(progress, list(grid), runs),
    )
    folded = [
        aggregate_runs(samples[index * runs : (index + 1) * runs])
        for index in range(len(grid))
    ]
    keys = folded[0][0].keys()
    for point, (means, _) in zip(grid, folded):
        if means.keys() != keys:
            raise ConfigError(
                f"sweep point {point!r} returned metric keys differing from "
                f"point {grid[0]!r}'s: {sorted(means.keys() ^ keys)}"
            )
    # aggregate_runs returns sorted keys, so the k-th value of every point's
    # dict is the same metric: one zip turns the rows into columns.
    return SweepResult(
        points=list(grid),
        means=_columns(keys, [means for means, _ in folded]),
        stds=_columns(keys, [stds for _, stds in folded]),
        runs=runs,
    )
