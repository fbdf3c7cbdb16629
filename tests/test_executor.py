"""The execution port: backend equivalence, spec parsing, the kept pool.

The acceptance contract: the pool is bit-identical to
:class:`SerialExecutor` for any worker count, because both backends
derive cell seeds inside the worker from ``(master_seed,
cell.seed_name)`` and return results in cell order. On top of that:
spec strings parse predictably, the pool reuses its worker processes
across ``map_cells`` calls and starts them from a forkserver, failures
stay deterministic and leave the pool usable, and the pre-executor
``jobs``/``chunk_size``/``start_method`` keywords and the removed
``warm``/joblib/dask spec strings are gone from every entry point.
"""

import inspect
import multiprocessing
import os
import warnings
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.experiments.executor import (
    Executor,
    PoolExecutor,
    SerialExecutor,
    SweepCell,
    SweepWorkerError,
    parse_executor_spec,
    resolve_executor,
)
from repro.sim.rng import derive_seed

from pool_cells import echo_seed, fail_at_two, poly, worker_pid


def _cells(points, label="x"):
    return [
        SweepCell(arg=p, seed_name=f"{label}/{p}", describe=f"point={p}")
        for p in points
    ]


class TestBackendEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(
        points=st.lists(
            st.floats(-100.0, 100.0).map(lambda x: round(x, 2)),
            min_size=1,
            max_size=6,
        ),
        master_seed=st.integers(0, 2**32),
        jobs=st.integers(1, 4),
    )
    def test_hypothesis_bit_identical_to_serial(
        self, points, master_seed, jobs
    ):
        cells = _cells(points)
        serial = SerialExecutor().map_cells(
            poly, cells, master_seed=master_seed
        )
        executor = PoolExecutor(jobs)
        try:
            other = executor.map_cells(
                poly, cells, master_seed=master_seed
            )
        finally:
            executor.close()
        assert other == serial
        assert [list(sample) for sample in other] == [
            list(sample) for sample in serial
        ]

    def test_seed_derived_inside_worker(self):
        cells = _cells([1.0, 2.0, 3.0], label="seeds")
        for executor in (SerialExecutor(), PoolExecutor(2)):
            try:
                results = executor.map_cells(
                    echo_seed, cells, master_seed=9
                )
            finally:
                executor.close()
            assert [r["seed"] for r in results] == [
                float(derive_seed(9, f"seeds/{p}")) for p in (1.0, 2.0, 3.0)
            ]

    def test_warm_repeated_calls_identical(self):
        cells = _cells([0.5, 1.5, 2.5])
        with closing(PoolExecutor(2)) as pool:
            first = pool.map_cells(poly, cells, master_seed=4)
            second = pool.map_cells(poly, cells, master_seed=4)
        assert first == second
        assert first == SerialExecutor().map_cells(
            poly, cells, master_seed=4
        )


class TestWarmPoolReuse:
    def test_workers_persist_across_calls(self):
        cells = _cells([float(i) for i in range(8)])
        with closing(PoolExecutor(2)) as pool:
            pids_first = {
                r["pid"] for r in pool.map_cells(worker_pid, cells)
            }
            pids_second = {
                r["pid"] for r in pool.map_cells(worker_pid, cells)
            }
        # One persistent 2-worker pool serves both calls, so at most 2
        # distinct pids appear across them; a pool respawned per call
        # would show up to 4.
        assert len(pids_first | pids_second) <= 2
        assert os.getpid() not in {int(p) for p in pids_first | pids_second}

    def test_workers_start_from_a_forkserver(self):
        # Never forked from this (threaded) interpreter: every worker
        # the pool holds is a forkserver child.
        with closing(PoolExecutor(2)) as pool:
            pool.map_cells(worker_pid, _cells([float(i) for i in range(8)]))
            children = multiprocessing.active_children()
        assert children
        assert all(
            isinstance(child, multiprocessing.context.ForkServerProcess)
            for child in children
        ), children

    def test_warm_pool_survives_cell_failure(self):
        ok_cells = _cells([1.0, 3.0])
        bad_cells = _cells([1.0, 2.0, 3.0])
        with closing(PoolExecutor(2)) as pool:
            before = pool.map_cells(fail_at_two, ok_cells)
            with pytest.raises(SweepWorkerError, match="point=2.0"):
                pool.map_cells(fail_at_two, bad_cells)
            after = pool.map_cells(fail_at_two, ok_cells)
        assert before == after == [{"y": 1.0}, {"y": 1.0}]

    def test_close_is_idempotent_and_allows_reuse(self):
        pool = PoolExecutor(2)
        cells = _cells([1.0, 2.0])
        assert pool.map_cells(poly, cells) == SerialExecutor().map_cells(
            poly, cells
        )
        pool.close()
        pool.close()
        # A closed executor lazily re-creates its pool on the next call.
        assert pool.map_cells(poly, cells) == SerialExecutor().map_cells(
            poly, cells
        )
        pool.close()

    def test_single_cell_never_spawns_pool(self):
        # Lambdas are unpicklable; a 1-cell call must stay in-process.
        with closing(PoolExecutor(4)) as pool:
            assert pool.map_cells(
                lambda p, s: {"y": p}, _cells([7.0])
            ) == [{"y": 7.0}]


class TestOnResult:
    @pytest.mark.parametrize(
        "factory",
        [
            SerialExecutor,
            lambda: PoolExecutor(1),
            lambda: PoolExecutor(2),
            lambda: PoolExecutor(3),
        ],
        ids=["serial", "pool1", "pool2", "pool3"],
    )
    def test_every_cell_announced_once(self, factory):
        cells = _cells([1.0, 2.0, 3.0, 4.0])
        seen = []
        executor = factory()
        try:
            executor.map_cells(
                poly,
                cells,
                on_result=lambda index, done, total: seen.append(
                    (index, done, total)
                ),
            )
        finally:
            executor.close()
        assert sorted(index for index, _, _ in seen) == [0, 1, 2, 3]
        assert sorted(done for _, done, _ in seen) == [1, 2, 3, 4]
        assert all(total == 4 for _, _, total in seen)


class TestSpecParsing:
    def test_serial(self):
        assert isinstance(parse_executor_spec("serial"), SerialExecutor)

    def test_pool_with_count(self):
        executor = parse_executor_spec("pool:3")
        assert isinstance(executor, PoolExecutor)
        assert executor.jobs == 3

    def test_count_defaults_to_cpu(self):
        assert parse_executor_spec("pool").jobs == (os.cpu_count() or 1)

    @pytest.mark.parametrize(
        "bad",
        [
            "serial:2", "bogus", "pool:x", "pool:", "pool:0", "pool:-1",
            "pool:2.5",
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_executor_spec(bad)

    @pytest.mark.parametrize("spec", ["joblib:2", "dask", "warm", "warm:2"])
    def test_removed_backends_are_unknown_executors(self, spec):
        with pytest.raises(ConfigError, match="unknown executor.*pool, serial"):
            parse_executor_spec(spec)

    def test_resolve_none_is_serial(self):
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_resolve_passes_instances_through(self):
        executor = PoolExecutor(2)
        assert resolve_executor(executor) is executor

    def test_resolve_rejects_non_executors(self):
        with pytest.raises(ConfigError, match="executor"):
            resolve_executor(42)

    def test_protocol_runtime_checkable(self):
        assert isinstance(SerialExecutor(), Executor)
        assert isinstance(PoolExecutor(1), Executor)


class TestNoInternalLegacyUse:
    """One ``executor`` argument on every entry point, nothing beside it."""

    def test_no_entry_point_takes_the_legacy_keywords(self):
        from repro.experiments import ablations, comparisons, figures
        from repro.experiments import multievent, repair, runner, scale
        from repro.workloads import spec

        entry_points = [
            runner.run_cells,
            runner.run_sweep,
            spec.run_scenario,
            spec.sweep_scenario,
            figures.run_figure8,
            figures.run_figure9,
            figures.run_figure10,
            figures.run_figure11,
            ablations.sweep_link_redundancy,
            ablations.sweep_fanout_constant,
            comparisons.measured_comparison,
            scale.sweep_group_size,
            scale.sweep_depth,
            multievent.stream_table,
            repair.repair_comparison,
        ]
        legacy = {"jobs", "chunk_size", "start_method"}
        for entry_point in entry_points:
            parameters = inspect.signature(entry_point).parameters
            assert "executor" in parameters, entry_point
            assert not legacy & set(parameters), entry_point

    def test_the_pool_takes_only_a_worker_count(self):
        parameters = inspect.signature(PoolExecutor.__init__).parameters
        assert list(parameters) == ["self", "jobs"]

    def test_public_entry_points_warn_free(self):
        # Behavioral counterpart: exercising the executor-based API end
        # to end (library sweep + scenario + CLI --jobs alias) must not
        # trip the deprecation shim anywhere internally.
        from repro.cli import main
        from repro.experiments.runner import run_sweep
        from repro.workloads.spec import run_scenario

        spec = {
            "name": "warnfree",
            "topics": {"kind": "chain", "depth": 1},
            "subscriptions": {"kind": "per_level", "counts": [2, 4]},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_sweep(poly, [1.0, 2.0], runs=2, executor="pool:2")
            run_scenario(spec, runs=2, executor="pool:2")
            assert main([
                "fig10", "--jobs", "2", "--runs", "1",
                "--grid", "0.5", "--sizes", "3", "8", "20",
            ]) == 0
