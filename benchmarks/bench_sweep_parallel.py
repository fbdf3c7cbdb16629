"""Execution backends — serial-vs-pool-vs-warm equality and wall-clock.

Runs one fig-10-sized sweep (the paper's §VII scenario over the full
alive-fraction grid, 5 runs per point — the workload behind Figs. 8–11)
once per executor backend: serial, a fresh ``pool:N`` and a persistent
``warm:N``. The gate is the **equality assertion** — every backend must
be bit-identical to the serial path — never the timing: speedup depends
on the core count of the machine running CI, while equality must hold
everywhere. The measured wall-clocks are emitted for the scaling story
(near-linear on a multi-core container, pool overhead only on a single
core; warm re-use shaving the per-sweep spawn/compile cost).
"""

import os
import time

from repro.experiments import DEFAULT_GRID, WarmPoolExecutor, run_figure10
from repro.metrics.report import Table
from repro.workloads import PaperScenario

SCENARIO = PaperScenario()
RUNS = 5


def _sweep(executor):
    return run_figure10(
        grid=DEFAULT_GRID, runs=RUNS, scenario=SCENARIO, executor=executor
    )


def test_sweep_parallel_equality_and_scaling(
    benchmark, emit, sweep_jobs, sweep_executor
):
    t0 = time.perf_counter()
    serial = _sweep("serial")
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = benchmark.pedantic(
        lambda: _sweep(sweep_executor), rounds=1, iterations=1
    )
    parallel_s = time.perf_counter() - t0

    warm_pool = WarmPoolExecutor(sweep_jobs)
    try:
        t0 = time.perf_counter()
        warm_cold_call = _sweep(warm_pool)
        warm_first_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_warm_call = _sweep(warm_pool)  # workers + compile cache hot
        warm_second_s = time.perf_counter() - t0
    finally:
        warm_pool.close()

    # The gate: bit-identical aggregated output for EVERY backend,
    # every cell of every row.
    for other in (parallel, warm_cold_call, warm_warm_call):
        assert list(other.columns) == list(serial.columns)
        assert other.rows == serial.rows

    table = Table(
        f"Execution backends — fig-10-sized workload, {len(DEFAULT_GRID)} "
        f"points x {RUNS} runs ({os.cpu_count()} cores)",
        ["executor", "jobs", "seconds", "speedup"],
        precision=3,
    )
    table.add_row("serial", 1, serial_s, 1.0)
    table.add_row(sweep_executor, sweep_jobs, parallel_s, serial_s / parallel_s)
    table.add_row(
        f"warm:{sweep_jobs} (1st)", sweep_jobs, warm_first_s,
        serial_s / warm_first_s,
    )
    table.add_row(
        f"warm:{sweep_jobs} (2nd)", sweep_jobs, warm_second_s,
        serial_s / warm_second_s,
    )
    emit(table, "sweep_parallel")
    # Sweep wall-clock, into the pytest-benchmark JSON.
    benchmark.extra_info["serial_s"] = serial_s
    benchmark.extra_info["parallel_s"] = parallel_s
    benchmark.extra_info["warm_first_s"] = warm_first_s
    benchmark.extra_info["warm_second_s"] = warm_second_s
    benchmark.extra_info["jobs"] = sweep_jobs
    benchmark.extra_info["sweep_cells"] = len(DEFAULT_GRID) * RUNS
