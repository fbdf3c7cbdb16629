"""Execution port: pluggable backends for sweep-cell evaluation.

Every sweep in the tree reduces to one operation — *evaluate
``run(cell.arg, seed)`` for a list of cells and return the results in
cell order* — and an :class:`Executor` is exactly that operation behind
a stable interface::

    executor.map_cells(run, cells, master_seed=..., on_result=...)

Three backends ship here, over one pool mechanism:

* :class:`SerialExecutor` — in-process, canonical order; the oracle
  every other backend must match bit-for-bit.
* :class:`WarmPoolExecutor` — the chunked fail-fast ``multiprocessing``
  scheduler. Its worker processes persist across ``map_cells`` calls,
  keep the unpickled run function cached by content digest, and (via
  the process-local compiled-spec cache in :mod:`repro.workloads.spec`)
  re-use compiled scenario specs across cells and across whole sweeps —
  the ModelOps-style warm-pool shape: pay the spawn + import + compile
  cost once, not per sweep.
* :class:`PoolExecutor` — a warm pool closed after one call: fresh
  workers per ``map_cells``, nothing held in between.

(:class:`~repro.experiments.artifacts.CachingExecutor` wraps any of
them with the content-addressed result store.) Nothing here requires a
dependency beyond the stdlib.

Bit-identity contract
---------------------
Every backend derives each cell's seed *inside the worker* as
``derive_seed(master_seed, cell.seed_name)`` and returns results in cell
order, so any backend × any worker count × any chunking is bit-identical
to :class:`SerialExecutor`. The hypothesis suites in
``tests/test_sweep_parallel.py`` and ``tests/test_executor.py`` enforce
this for every backend.

Executor specs
--------------
User-facing entry points accept an :data:`ExecutorSpec` — an
:class:`Executor` instance, ``None`` (serial), or a compact string::

    "serial"            in-process
    "pool"  / "pool:N"  fresh multiprocessing pool per call, N workers
    "warm"  / "warm:N"  persistent multiprocessing pool, N workers

``N`` defaults to the machine's CPU count. :func:`resolve_executor`
turns a spec into an instance. Whoever builds an instance closes it:
:func:`~repro.experiments.runner.run_cells` closes what it resolved
from a string or ``None``; an instance handed in stays the caller's.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import pickle
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Protocol, Sequence, Union, runtime_checkable

from repro.errors import ConfigError
from repro.sim.rng import derive_seed

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
    """A sweep cell's run function raised.

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
    cells: Sequence[SweepCell], jobs: int, chunk_size: int | None
) -> list[list[tuple[int, SweepCell]]]:
    total = len(cells)
    if chunk_size is None:
        chunk_size = max(1, math.ceil(total / (jobs * 4)))
    indexed = list(enumerate(cells))
    return [
        indexed[start : start + chunk_size]
        for start in range(0, total, chunk_size)
    ]


# Each pool task is a chunk of (index, cell) pairs. The worker re-derives
# every cell's seed from (master_seed, cell.seed_name) — the parent never
# ships seeds, so the serial and parallel paths cannot diverge on
# seeding. Exceptions are captured per cell and reported back as data:
# a worker never dies on a run-function error, and the parent re-raises
# deterministically for the lowest failing cell index.
def _eval_cell(
    run: Callable[[Any, int], Any],
    master_seed: int,
    index: int,
    cell: SweepCell,
) -> tuple[int, bool, Any]:
    # repro-lint: allow[DET004]: cell.seed_name is an f-string literal declared by each sweep driver and linted there
    seed = derive_seed(master_seed, cell.seed_name)
    try:
        result = run(cell.arg, seed)
        # Verify the result survives the trip back to the parent — an
        # unpicklable value would otherwise abort the whole pool with an
        # opaque MaybeEncodingError naming no cell.
        pickle.dumps(result)
        return (index, True, result)
    except Exception as exc:  # noqa: BLE001 — reported to the parent
        return (index, False, (repr(exc), traceback.format_exc()))


def _default_jobs() -> int:
    return os.cpu_count() or 1


def _check_count(value: int, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{what} must be an integer >= 1, got {value!r}")
    return value


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

    def __repr__(self) -> str:
        return "SerialExecutor()"


# Warm workers cache unpickled run functions by content digest, so a
# sweep's thousands of cells unpickle their shared run function (and its
# bound spec dict) once per worker, not once per chunk — and the
# process-local compiled-spec cache in repro.workloads.spec then keeps
# the *compiled* scenario alive across cells, sweeps and map_cells
# calls for as long as the worker lives.
_WARM_RUN_CACHE: dict[str, Callable[[Any, int], Any]] = {}
_WARM_RUN_CACHE_LIMIT = 8


def _run_warm_chunk(
    task: tuple[str, bytes, int, list[tuple[int, SweepCell]]]
) -> list[tuple[int, bool, Any]]:
    run_digest, run_blob, master_seed, chunk = task
    run = _WARM_RUN_CACHE.get(run_digest)
    if run is None:
        run = pickle.loads(run_blob)
        if len(_WARM_RUN_CACHE) >= _WARM_RUN_CACHE_LIMIT:
            _WARM_RUN_CACHE.clear()
        _WARM_RUN_CACHE[run_digest] = run
    return [
        _eval_cell(run, master_seed, index, cell) for index, cell in chunk
    ]


class WarmPoolExecutor:
    """The chunked fail-fast ``multiprocessing`` scheduler, workers kept.

    Cells fan out in contiguous chunks of ``chunk_size`` (default:
    enough chunks for ~4 per worker) over ``jobs`` worker processes;
    ``start_method`` picks fork/spawn/forkserver (None = platform
    default). A single-cell (or empty, or one-worker) call never pays
    for a pool — it runs serially, so even unpicklable run functions
    work.

    The pool is created lazily on the first parallel ``map_cells`` and
    reused by every later call — ``run_cells``, ``run_sweep`` and
    ``sweep_scenario`` invocations through one executor instance all
    share the same workers, so the spawn/import cost is paid once per
    executor, not once per sweep. Workers additionally cache the
    unpickled run function by content digest and (through the
    compiled-spec cache in :mod:`repro.workloads.spec`) the compiled
    scenario per spec digest.

    A run-function failure is re-raised as :class:`SweepWorkerError`
    for the lowest failing cell index, with the worker traceback
    attached, as soon as every cell below it has completed (so the
    canonical first failure is known). The pool is *not* torn down:
    in-flight chunks finish in the background and the workers stay warm
    for the next call.

    Close explicitly (``close()`` or use as a context manager) when
    done; an unclosed executor's pool is reclaimed at garbage
    collection / interpreter exit by ``multiprocessing``'s own
    finalizers, with a :class:`ResourceWarning`.
    """

    def __init__(
        self,
        jobs: int,
        *,
        chunk_size: int | None = None,
        start_method: str | None = None,
    ):
        self.jobs = _check_count(jobs, "jobs")
        self.chunk_size = (
            None if chunk_size is None else _check_count(chunk_size, "chunk_size")
        )
        self.start_method = start_method
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            ctx = multiprocessing.get_context(self.start_method)
            self._pool = ctx.Pool(processes=self.jobs)
        return self._pool

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
        run_blob = pickle.dumps(run)
        run_digest = hashlib.sha256(run_blob).hexdigest()
        chunks = _make_chunks(cells, self.jobs, self.chunk_size)
        tasks = [(run_digest, run_blob, master_seed, chunk) for chunk in chunks]
        results: list[Any] = [None] * total
        failures: list[tuple[int, tuple[str, str]]] = []
        finished = [False] * total
        done = 0
        pool = self._ensure_pool()
        for chunk_results in pool.imap_unordered(_run_warm_chunk, tasks):
            for index, ok, payload in chunk_results:
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
            # successfully, or the minimum would be lower), that failure
            # is the canonical first one. The iterator is abandoned, not
            # the pool: remaining chunks drain in the background and the
            # workers stay warm.
            if failures and all(finished[: min(failures)[0]]):
                break
        if failures:
            index, (cause, worker_tb) = min(failures)
            cell = cells[index]
            raise SweepWorkerError(
                cell,
                # repro-lint: allow[DET004]: cell.seed_name is an f-string literal declared by each sweep driver and linted there
                derive_seed(master_seed, cell.seed_name),
                cause,
                worker_tb,
            )
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WarmPoolExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "warm" if self._pool is not None else "cold"
        return f"WarmPoolExecutor(jobs={self.jobs}, {state})"


class PoolExecutor:
    """A :class:`WarmPoolExecutor` closed after every call.

    Each ``map_cells`` runs on workers spawned for that call and torn
    down when it returns or raises, so nothing is held between calls and
    there is nothing to close. Arguments, scheduling, chunking and
    failure semantics are the warm pool's — it is the same code.
    """

    def __init__(
        self,
        jobs: int,
        *,
        chunk_size: int | None = None,
        start_method: str | None = None,
    ):
        self._warm = WarmPoolExecutor(
            jobs, chunk_size=chunk_size, start_method=start_method
        )
        self.jobs = self._warm.jobs

    def map_cells(
        self,
        run: Callable[[Any, int], Any],
        cells: Sequence[SweepCell],
        *,
        master_seed: int = 0,
        on_result: OnResultFn | None = None,
    ) -> list[Any]:
        with self._warm as pool:
            return pool.map_cells(
                run, cells, master_seed=master_seed, on_result=on_result
            )

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return f"PoolExecutor(jobs={self.jobs})"


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
_BACKENDS: dict[str, Callable[[int], Executor]] = {
    "serial": lambda jobs: SerialExecutor(),
    "pool": PoolExecutor,
    "warm": WarmPoolExecutor,
}


def parse_executor_spec(spec: str) -> Executor:
    """Parse a compact executor spec string into an instance.

    ``"serial"``, ``"pool"``/``"pool:N"``, ``"warm"``/``"warm:N"``;
    ``N`` defaults to the CPU count.
    """
    name, sep, arg = spec.partition(":")
    factory = _BACKENDS.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown executor {spec!r}; expected one of "
            f"{', '.join(sorted(_BACKENDS))} (optionally ':N' workers)"
        )
    if not sep:
        jobs = 1 if name == "serial" else _default_jobs()
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
        "executor must be None, a spec string ('serial', 'pool:N', "
        f"'warm:N', ...) or an Executor instance, got {executor!r}"
    )
