"""Execution port: pluggable backends for sweep-cell evaluation.

Every sweep in the tree reduces to one operation — *evaluate
``run(cell.arg, seed)`` for a list of cells and return the results in
cell order* — and an :class:`Executor` is exactly that operation behind
a stable interface::

    executor.map_cells(run, cells, master_seed=..., on_result=...)

Two backends ship here:

* :class:`SerialExecutor` — in-process, canonical order; the oracle
  the pool must match bit-for-bit.
* :class:`PoolExecutor` — the chunked fail-fast scheduler on a stdlib
  :class:`concurrent.futures.ProcessPoolExecutor`. Its workers start
  from a ``forkserver`` (never forked from a threaded parent), persist
  across ``map_cells`` calls until ``close()``, and (via the
  process-local compiled-spec cache in :mod:`repro.workloads.spec`)
  re-use compiled scenario specs across cells and across whole sweeps —
  the ModelOps-style warm-pool shape: pay the start + import + compile
  cost once per pool, not per sweep. A worker that dies fails the sweep
  instead of hanging it.

(:class:`~repro.experiments.artifacts.CachingExecutor` wraps either
with the content-addressed result store.) Nothing here requires a
dependency beyond the stdlib.

Bit-identity contract
---------------------
Both backends derive each cell's seed *inside the worker* as
``derive_seed(master_seed, cell.seed_name)`` and return results in cell
order, so the pool at any worker count is bit-identical to
:class:`SerialExecutor`. The hypothesis suites in
``tests/test_sweep_parallel.py`` and ``tests/test_executor.py`` enforce
this.

Executor specs
--------------
User-facing entry points accept an :data:`ExecutorSpec` — an
:class:`Executor` instance, ``None`` (serial), or a compact string::

    "serial"            in-process
    "pool"  / "pool:N"  process pool of N workers

``N`` defaults to the machine's CPU count. :func:`resolve_executor`
turns a spec into an instance. Whoever builds an instance closes it:
:func:`~repro.experiments.runner.run_cells` closes what it resolved
from a string or ``None``; an instance handed in stays the caller's.
"""

from __future__ import annotations

import math
import os
import pickle
import traceback
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from repro.errors import ConfigError
from repro.sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

#: Per-cell completion callback: ``on_result(index, completed, total)``,
#: invoked after each *successful* cell (completion order under parallel
#: backends, canonical order serially). A failed cell is never announced.
OnResultFn = Callable[[int, int, int], None]


@dataclass(frozen=True)
class SweepCell:
    """One schedulable unit of sweep work.

    ``arg`` is handed to the run function verbatim; the worker derives
    the cell's seed as ``derive_seed(master_seed, seed_name)`` — it never
    receives a seed over the wire, which keeps the contract auditable
    from the cell alone. ``describe`` labels the cell in error messages.
    """

    arg: Any
    seed_name: str
    describe: str = ""


class SweepWorkerError(RuntimeError):
    """A sweep cell's run function raised, or the worker running it died.

    Identifies the failing cell — point/arg, run index (via
    ``describe``), seed name and the derived seed — plus the worker-side
    traceback when the failure happened in a pool worker.
    """

    def __init__(
        self,
        cell: SweepCell,
        seed: int,
        cause: str,
        worker_traceback: str | None = None,
    ):
        self.cell = cell
        self.seed = seed
        self.cause = cause
        self.worker_traceback = worker_traceback
        where = cell.describe or f"arg={cell.arg!r}"
        message = (
            f"sweep cell failed ({where}, seed_name={cell.seed_name!r}, "
            f"seed={seed}): {cause}"
        )
        if worker_traceback:
            message += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(message)


@runtime_checkable
class Executor(Protocol):
    """The execution port: evaluate cells, return results in cell order."""

    def map_cells(
        self,
        run: Callable[[Any, int], Any],
        cells: Sequence[SweepCell],
        *,
        master_seed: int = 0,
        on_result: OnResultFn | None = None,
    ) -> list[Any]:
        """Evaluate ``run(cell.arg, derive_seed(master_seed,
        cell.seed_name))`` for every cell; results in cell order."""
        ...  # pragma: no cover — protocol signature

    def close(self) -> None:
        """Release any held workers (no-op for stateless backends)."""
        ...  # pragma: no cover — protocol signature


#: What user-facing entry points accept for their ``executor`` argument.
ExecutorSpec = Union[Executor, str, None]


# ----------------------------------------------------------------------
# Shared worker plumbing (serial loop, picklability, chunking).
# ----------------------------------------------------------------------
def _run_serial(
    run: Callable[[Any, int], Any],
    cells: Sequence[SweepCell],
    master_seed: int,
    on_result: OnResultFn | None,
) -> list[Any]:
    results: list[Any] = [None] * len(cells)
    total = len(cells)
    for index, cell in enumerate(cells):
        # repro-lint: allow[DET004]: cell.seed_name is an f-string literal declared by each sweep driver and linted there
        seed = derive_seed(master_seed, cell.seed_name)
        try:
            results[index] = run(cell.arg, seed)
        except Exception as exc:
            raise SweepWorkerError(cell, seed, repr(exc)) from exc
        if on_result is not None:
            on_result(index, index + 1, total)
    return results


def _ensure_picklable(
    run: Callable[[Any, int], Any], cells: Sequence[SweepCell]
) -> None:
    try:
        pickle.dumps(run)
    except Exception as exc:
        raise ConfigError(
            "run function must be picklable for parallel executors: use a "
            "module-level function or a functools.partial of one "
            f"(got {run!r}: {exc})"
        ) from exc
    try:
        pickle.dumps(list(cells))
    except Exception as exc:
        raise ConfigError(
            f"cell args must be picklable for parallel executors: {exc}"
        ) from exc


def _make_chunks(
    cells: Sequence[SweepCell], jobs: int
) -> list[list[tuple[int, SweepCell]]]:
    # Contiguous chunks, about four per worker.
    size = max(1, math.ceil(len(cells) / (jobs * 4)))
    indexed = list(enumerate(cells))
    return [
        indexed[start : start + size] for start in range(0, len(cells), size)
    ]


# Each pool task is a chunk of (index, cell) pairs. The worker re-derives
# every cell's seed from (master_seed, cell.seed_name) — the parent never
# ships seeds, so the serial and parallel paths cannot diverge on
# seeding. Exceptions are captured per cell and reported back as data:
# a worker never dies on a run-function error, and the parent re-raises
# deterministically for the lowest failing cell index.
def _run_chunk(
    run: Callable[[Any, int], Any],
    master_seed: int,
    chunk: list[tuple[int, SweepCell]],
) -> list[tuple[int, bool, Any]]:
    outcomes = []
    for index, cell in chunk:
        # repro-lint: allow[DET004]: cell.seed_name is an f-string literal declared by each sweep driver and linted there
        seed = derive_seed(master_seed, cell.seed_name)
        try:
            result = run(cell.arg, seed)
            # Verify the result survives the trip back to the parent —
            # an unpicklable value would otherwise fail its whole chunk
            # with an opaque pickling error naming no cell.
            pickle.dumps(result)
            outcomes.append((index, True, result))
        except Exception as exc:  # noqa: BLE001 — reported to the parent
            outcomes.append((index, False, (repr(exc), traceback.format_exc())))
    return outcomes


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class SerialExecutor:
    """In-process, canonical-order evaluation — the determinism oracle."""

    def map_cells(
        self,
        run: Callable[[Any, int], Any],
        cells: Sequence[SweepCell],
        *,
        master_seed: int = 0,
        on_result: OnResultFn | None = None,
    ) -> list[Any]:
        return _run_serial(run, list(cells), master_seed, on_result)

    def close(self) -> None:
        pass


#: What the forkserver imports once, so that every worker it forks starts
#: with the modules a cell runs loaded: the chunk runner and the scenario
#: layer (with the artifact digest its compile memo keys on). A package
#: name would preload only its ``__init__``, which imports nothing.
_POOL_PRELOAD = [
    "repro.experiments.executor",
    "repro.experiments.artifacts",
    "repro.workloads.spec",
]


class PoolExecutor:
    """The chunked fail-fast process pool: ``jobs`` workers, kept.

    Cells fan out in contiguous chunks (about four per worker) over
    ``jobs`` worker processes of a stdlib
    :class:`~concurrent.futures.ProcessPoolExecutor`. A single-cell (or
    empty, or one-worker) call never pays for a pool — it runs serially,
    so even unpicklable run functions work. Workers start from the
    forkserver and import a run function's module by name, so a script
    that builds a pool needs an ``if __name__ == "__main__":`` guard.

    The pool, every worker started, is created on the first parallel
    ``map_cells`` and reused by every later call until ``close()`` —
    ``run_cells``, ``run_sweep`` and ``sweep_scenario`` invocations
    through one executor instance all share the same workers, and
    (through the compiled-spec cache in :mod:`repro.workloads.spec`)
    each worker compiles a scenario once per spec digest.

    A run-function failure is re-raised as :class:`SweepWorkerError`
    for the lowest failing cell index, with the worker traceback
    attached, as soon as every cell below it has completed (so the
    canonical first failure is known). Chunks not yet started are
    cancelled; the workers stay for the next call. A worker that dies
    (out of memory, killed by a signal) breaks the pool: it is closed,
    :class:`SweepWorkerError` names the lowest unfinished cell and its
    cause lists every unfinished one, and the next call starts a fresh
    pool.

    Close explicitly (``close()``, or through ``contextlib.closing``)
    when done; closing waits for the chunks already running.
    """

    def __init__(self, jobs: int):
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
            raise ConfigError(f"jobs must be an integer >= 1, got {jobs!r}")
        self.jobs = jobs
        self._pool: ProcessPoolExecutor | None = None

    def map_cells(
        self,
        run: Callable[[Any, int], Any],
        cells: Sequence[SweepCell],
        *,
        master_seed: int = 0,
        on_result: OnResultFn | None = None,
    ) -> list[Any]:
        cells = list(cells)
        total = len(cells)
        if self.jobs == 1 or total <= 1:
            # One worker would only re-pay IPC per chunk; keep the serial
            # fast path (still bit-identical by contract).
            return _run_serial(run, cells, master_seed, on_result)
        _ensure_picklable(run, cells)
        # the pool's machinery loads with the first parallel call: a serial
        # run never imports multiprocessing
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        if self._pool is None:
            # Workers start from a forkserver, never by forking the parent
            # (which may have threads running, the pool's own among them).
            context = multiprocessing.get_context("forkserver")
            context.set_forkserver_preload(_POOL_PRELOAD)
            self._pool = ProcessPoolExecutor(self.jobs, mp_context=context)
            # Start every worker now, as the pool does for "fork". Left to
            # spawn one per submit, a submit racing a worker's death can
            # start a worker after the pool's manager thread has
            # terminated the others (it marks the pool broken outside the
            # submit lock): that worker is never terminated, and shutdown
            # waits on it forever.
            self._pool._launch_processes()
        results: list[Any] = [None] * total
        failures: list[tuple[int, tuple[str, str]]] = []
        finished = [False] * total
        done = 0
        broken: BrokenProcessPool | None = None
        futures = []
        try:
            for chunk in _make_chunks(cells, self.jobs):
                futures.append(
                    self._pool.submit(_run_chunk, run, master_seed, chunk)
                )
            for future in as_completed(futures):
                for index, ok, payload in future.result():
                    finished[index] = True
                    if ok:
                        results[index] = payload
                        done += 1
                        if on_result is not None:
                            on_result(index, done, total)
                    else:
                        failures.append((index, payload))
                # Fail fast, deterministically: once every cell below the
                # lowest observed failure has completed (necessarily
                # successfully, or the minimum would be lower), that
                # failure is the canonical first one.
                if failures and all(finished[: min(failures)[0]]):
                    break
        except BrokenProcessPool as exc:
            broken = exc
            self.close()
        finally:
            for future in futures:
                future.cancel()
        if failures and all(finished[: min(failures)[0]]):
            index, (cause, worker_tb) = min(failures)
        elif broken is not None:
            unfinished = [i for i, flag in enumerate(finished) if not flag]
            index, worker_tb = unfinished[0], None
            cause = (
                f"a pool worker died ({broken}); unfinished cells "
                f"(by index): {unfinished}"
            )
        else:
            return results
        cell = cells[index]
        raise SweepWorkerError(
            cell,
            # repro-lint: allow[DET004]: cell.seed_name is an f-string literal declared by each sweep driver and linted there
            derive_seed(master_seed, cell.seed_name),
            cause,
            worker_tb,
        ) from broken

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
_BACKENDS: dict[str, Callable[[int], Executor]] = {
    "serial": lambda jobs: SerialExecutor(),
    "pool": PoolExecutor,
}


def parse_executor_spec(spec: str) -> Executor:
    """Parse a compact executor spec string into an instance.

    ``"serial"`` or ``"pool"``/``"pool:N"``; ``N`` defaults to the CPU
    count.
    """
    name, sep, arg = spec.partition(":")
    factory = _BACKENDS.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown executor {spec!r}; expected one of "
            f"{', '.join(sorted(_BACKENDS))} (optionally ':N' workers)"
        )
    if not sep:
        jobs = 1 if name == "serial" else os.cpu_count() or 1
    else:
        if name == "serial":
            raise ConfigError(
                f"executor 'serial' takes no worker count, got {spec!r}"
            )
        try:
            jobs = int(arg)
        except ValueError:
            raise ConfigError(
                f"executor {spec!r}: worker count must be an integer, "
                f"got {arg!r}"
            ) from None
    return factory(jobs)


def resolve_executor(executor: ExecutorSpec) -> Executor:
    """Turn an :data:`ExecutorSpec` into an :class:`Executor` instance.

    ``None`` means serial; strings are parsed with
    :func:`parse_executor_spec`; instances pass through unchanged.
    """
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, str):
        return parse_executor_spec(executor)
    if isinstance(executor, Executor):
        return executor
    raise ConfigError(
        "executor must be None, a spec string ('serial', 'pool:N') or "
        f"an Executor instance, got {executor!r}"
    )
