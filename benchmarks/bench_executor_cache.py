"""Executor/cache trajectory — cold pool vs warm pool vs artifact cache.

One scenario sweep (§VII stillborn workload, alive-fraction grid), run
four ways:

* **cold** — a fresh ``pool:N`` per sweep (workers spawned, every spec
  compiled from scratch in each worker),
* **warm (1st/2nd)** — one persistent :class:`WarmPoolExecutor`; the
  second call reuses live workers and their per-digest compile cache,
* **cached** — a :class:`CachingExecutor` over a fully warmed artifact
  store: zero cells execute, results are read back from disk.

The gates are correctness, not timing: every path must be bit-identical
to the serial sweep, and the cached pass must execute exactly zero
cells. The wall-clocks are the cold-vs-warm-vs-cached comparison.
"""

import os
import tempfile
import time

from repro.experiments import CachingExecutor, WarmPoolExecutor
from repro.experiments.artifacts import ArtifactStore
from repro.metrics.report import Table
from repro.workloads.spec import spec_digest, sweep_scenario

SPEC = {
    "name": "executor-cache-bench",
    "topics": {"kind": "chain", "depth": 2, "prefix": "t"},
    "subscriptions": {"kind": "per_level", "counts": [5, 20, 80]},
    "publications": {"kind": "single", "level": -1},
    "failures": {"kind": "stillborn", "alive_fraction": 0.7},
    "p_success": 0.85,
}
FIELD = "failures.alive_fraction"
VALUES = (0.4, 0.6, 0.8, 1.0)
RUNS = 3


def _sweep(executor):
    return sweep_scenario(
        SPEC, FIELD, list(VALUES), runs=RUNS, master_seed=7, executor=executor
    )


def _same(a, b):
    return a.points == b.points and a.means == b.means and a.stds == b.stds


def test_executor_cache_trajectory(benchmark, emit, sweep_jobs, sweep_executor):
    serial = _sweep("serial")

    t0 = time.perf_counter()
    cold = _sweep(sweep_executor)
    cold_s = time.perf_counter() - t0

    warm_pool = WarmPoolExecutor(sweep_jobs)
    try:
        t0 = time.perf_counter()
        warm_first = _sweep(warm_pool)
        warm_first_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_second = _sweep(warm_pool)
        warm_second_s = time.perf_counter() - t0
    finally:
        warm_pool.close()

    run_key = spec_digest(
        {"kind": "bench-executor-cache", "spec": SPEC, "field": FIELD}
    )
    with tempfile.TemporaryDirectory() as cache_dir:
        store = ArtifactStore(cache_dir)
        populate = CachingExecutor(WarmPoolExecutor(sweep_jobs), store, run_key)
        try:
            t0 = time.perf_counter()
            cache_cold = _sweep(populate)
            populate_s = time.perf_counter() - t0
            assert populate.executed == len(VALUES) * RUNS
        finally:
            populate.close()

        cached = CachingExecutor(WarmPoolExecutor(sweep_jobs), store, run_key)
        try:
            t0 = time.perf_counter()
            cache_hot = benchmark.pedantic(
                lambda: _sweep(cached), rounds=1, iterations=1
            )
            cached_s = time.perf_counter() - t0
        finally:
            cached.close()
        # The cache gates: a warmed store serves everything — zero cells
        # executed — and the result is still bit-identical to serial.
        assert cached.hits == len(VALUES) * RUNS
        assert cached.executed == 0

    for other in (cold, warm_first, warm_second, cache_cold, cache_hot):
        assert _same(other, serial)

    cells = len(VALUES) * RUNS
    table = Table(
        f"Executor/cache trajectory — {len(VALUES)} points x {RUNS} runs "
        f"({os.cpu_count()} cores)",
        ["mode", "jobs", "seconds", "cells_executed"],
        precision=3,
    )
    table.add_row(f"cold {sweep_executor}", sweep_jobs, cold_s, cells)
    table.add_row(f"warm:{sweep_jobs} (1st)", sweep_jobs, warm_first_s, cells)
    table.add_row(f"warm:{sweep_jobs} (2nd)", sweep_jobs, warm_second_s, cells)
    table.add_row("cache populate", sweep_jobs, populate_s, cells)
    table.add_row("cache hit", sweep_jobs, cached_s, 0)
    emit(table, "executor_cache")
    benchmark.extra_info["cold_s"] = cold_s
    benchmark.extra_info["warm_first_s"] = warm_first_s
    benchmark.extra_info["warm_second_s"] = warm_second_s
    benchmark.extra_info["cache_populate_s"] = populate_s
    benchmark.extra_info["cache_hit_s"] = cached_s
    benchmark.extra_info["jobs"] = sweep_jobs
    benchmark.extra_info["sweep_cells"] = cells
