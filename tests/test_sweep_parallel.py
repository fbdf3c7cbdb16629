"""Parallel sweep engine: serial-vs-parallel equivalence and scheduling.

The contract under test: ``run_sweep(..., executor="pool:N")`` is
bit-identical to the serial path for every N, chunk size and start
method, because workers re-derive each cell's seed from ``(master_seed,
label, point, j)`` and aggregation happens in canonical (point, run)
order. Worker failures must surface with the failing (point, run, seed)
identified. Every pool-semantics test takes ``make_pool`` and so runs
against both lifetimes of the one pool mechanism: ``PoolExecutor``
(closed after the call) and ``WarmPoolExecutor`` (kept). An entry point
closes the executor it built from a spec string.

Cross-backend equivalence (serial vs pool vs warm, arbitrary worker
counts) lives in ``test_executor.py``; this file covers the sweep
layer on top of the port.

The run functions used with parallel executors are module-level — the
pool pickles them by reference (and that requirement is itself under
test).
"""

import functools
import gc
import multiprocessing
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.experiments import (
    PoolExecutor,
    SweepCell,
    SweepWorkerError,
    WarmPoolExecutor,
    aggregate_runs,
    run_cells,
    run_sweep,
)
from repro.sim.rng import derive_seed


def _poly(point, seed):
    # Deterministic, seed- and point-sensitive, with several metrics so
    # dict-ordering bugs are visible.
    return {
        "m": (seed % 9973) * point,
        "b": float(seed % 7),
        "alpha": point + (seed % 3),
    }


def _fail_at_two(point, seed):
    if point == 2.0:
        raise ValueError("boom")
    return {"y": 1.0}


def _unpicklable_result(point, seed):
    return {"y": lambda: None}


def _scaled(point, seed, *, factor):
    return {"y": point * factor + (seed % 11)}


@pytest.fixture(params=[PoolExecutor, WarmPoolExecutor], ids=["pool", "warm"])
def make_pool(request):
    """``make_pool(jobs, **kwargs)`` for each pool lifetime; closed after."""
    made = []

    def make(jobs, **kwargs):
        made.append(request.param(jobs, **kwargs))
        return made[-1]

    yield make
    for executor in made:
        executor.close()


def _sweeps_equal(a, b):
    assert a.points == b.points
    assert a.runs == b.runs
    # Contents AND dict ordering, metric by metric.
    assert list(a.means) == list(b.means)
    assert list(a.stds) == list(b.stds)
    assert a.means == b.means
    assert a.stds == b.stds


class TestSerialParallelEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        grid=st.lists(
            st.floats(-1e6, 1e6).map(lambda x: round(x, 3)),
            min_size=1,
            max_size=5,
        ),
        runs=st.integers(1, 3),
        master_seed=st.integers(0, 2**32),
        jobs=st.integers(2, 4),
    )
    def test_hypothesis_bit_identical(self, grid, runs, master_seed, jobs):
        serial = run_sweep(
            _poly, grid, runs=runs, master_seed=master_seed, label="hyp"
        )
        parallel = run_sweep(
            _poly,
            grid,
            runs=runs,
            master_seed=master_seed,
            label="hyp",
            executor=f"pool:{jobs}",
        )
        _sweeps_equal(serial, parallel)

    def test_partial_run_fn_parallel(self):
        run = functools.partial(_scaled, factor=3.0)
        serial = run_sweep(run, [0.5, 1.5], runs=3, label="partial")
        parallel = run_sweep(
            run, [0.5, 1.5], runs=3, label="partial", executor="pool:2"
        )
        _sweeps_equal(serial, parallel)

    @pytest.mark.parametrize("chunk_size", [1, 2, 100])
    def test_chunk_size_irrelevant_to_results(self, make_pool, chunk_size):
        serial = run_sweep(_poly, [1.0, 2.0, 3.0], runs=2, label="chunk")
        parallel = run_sweep(
            _poly,
            [1.0, 2.0, 3.0],
            runs=2,
            label="chunk",
            executor=make_pool(3, chunk_size=chunk_size),
        )
        _sweeps_equal(serial, parallel)

    def test_spawn_start_method_identical(self, make_pool):
        # Spawn-safety: workers import everything fresh and re-derive
        # seeds; nothing depends on forked parent state.
        serial = run_sweep(_poly, [1.0, 2.0], runs=2, label="spawn")
        parallel = run_sweep(
            _poly,
            [1.0, 2.0],
            runs=2,
            label="spawn",
            executor=make_pool(2, start_method="spawn"),
        )
        _sweeps_equal(serial, parallel)

    def test_duplicate_grid_points_reuse_seeds(self):
        # The documented label-collision caveat, at its smallest: the
        # same point twice in one grid gets identical seeds cell-for-cell.
        result = run_sweep(
            _poly, [1.0, 1.0], runs=2, label="dup", executor="pool:2"
        )
        assert result.means["m"][0] == result.means["m"][1]


class TestWorkerErrors:
    def test_serial_error_identifies_cell(self):
        with pytest.raises(SweepWorkerError) as excinfo:
            run_sweep(_fail_at_two, [1.0, 2.0], runs=2, label="err")
        message = str(excinfo.value)
        expected_seed = derive_seed(0, "err/2.0/0")
        assert "point=2.0" in message
        assert "run=0" in message
        assert str(expected_seed) in message
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_parallel_error_identifies_cell_and_traceback(self):
        with pytest.raises(SweepWorkerError) as excinfo:
            run_sweep(
                _fail_at_two,
                [1.0, 2.0],
                runs=2,
                label="err",
                executor=PoolExecutor(2, chunk_size=1),
            )
        message = str(excinfo.value)
        assert "point=2.0" in message
        assert "run=0" in message
        assert str(derive_seed(0, "err/2.0/0")) in message
        assert "ValueError" in message
        assert "worker traceback" in message

    def test_parallel_error_is_deterministic_lowest_cell(self, make_pool):
        # Both runs at point 2.0 fail; the error must always name the
        # canonically-first failing cell regardless of completion order.
        for _ in range(3):
            with pytest.raises(SweepWorkerError) as excinfo:
                run_sweep(
                    _fail_at_two,
                    [2.0, 1.0],
                    runs=2,
                    label="err",
                    executor=make_pool(2, chunk_size=1),
                )
            assert "run=0" in str(excinfo.value)

    def test_unpicklable_result_surfaces_as_cell_failure(self, make_pool):
        # A result that cannot cross the process boundary must name its
        # cell, not abort the pool with an opaque MaybeEncodingError.
        with pytest.raises(SweepWorkerError) as excinfo:
            run_sweep(
                _unpicklable_result,
                [1.0, 2.0],
                runs=2,
                label="pkl",
                executor=make_pool(2),
            )
        message = str(excinfo.value)
        assert "point=1.0" in message
        assert "run=0" in message

    def test_lambda_rejected_for_parallel(self, make_pool):
        with pytest.raises(ConfigError, match="picklable"):
            run_sweep(
                lambda p, s: {"y": 0.0},
                [1.0, 2.0],
                runs=2,
                executor=make_pool(2),
            )

    def test_single_cell_sweep_runs_in_process(self):
        # One cell never pays for a pool — parallel executors degrade to
        # the serial path, so even unpicklable run functions work.
        result = run_sweep(
            lambda p, s: {"y": p}, [1.0], runs=1, executor="pool:4"
        )
        assert result.means["y"] == [1.0]

    def test_jobs_validation(self):
        with pytest.raises(ConfigError):
            run_sweep(_poly, [1.0], runs=1, executor="pool:0")

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
    def test_chunk_size_validation(self, make_pool, bad):
        with pytest.raises(ConfigError, match="chunk_size"):
            make_pool(2, chunk_size=bad)


def _leaves_no_pool_behind(call):
    # An unclosed pool announces itself from Pool.__del__, where an
    # "error" filter could only reach the unraisable hook; record instead,
    # collect inside the filter, and look at what is still running.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        call()
        gc.collect()
    assert [str(w.message) for w in caught] == []
    assert multiprocessing.active_children() == []


class TestSpecStringOwnership:
    """An executor built from a spec string is closed by who built it."""

    def test_run_sweep_closes_the_pool_it_built(self):
        _leaves_no_pool_behind(
            lambda: run_sweep(_poly, [1.0, 2.0], runs=2, executor="warm:2")
        )

    def test_sweep_scenario_closes_the_pool_it_built(self):
        from repro.workloads.spec import sweep_scenario

        spec = {
            "name": "owned",
            "topics": {"kind": "chain", "depth": 1},
            "subscriptions": {"kind": "per_level", "counts": [2, 4]},
        }
        _leaves_no_pool_behind(
            lambda: sweep_scenario(
                spec, "p_success", [0.5, 1.0], runs=2, executor="warm:2"
            )
        )

    def test_closed_even_when_a_cell_fails(self):
        def failing():
            with pytest.raises(SweepWorkerError):
                run_sweep(
                    _fail_at_two, [1.0, 2.0], runs=2, executor="warm:2"
                )

        _leaves_no_pool_behind(failing)

    def test_an_instance_stays_open_for_its_owner(self):
        with WarmPoolExecutor(2) as warm:
            run_sweep(_poly, [1.0, 2.0], runs=2, executor=warm)
            assert repr(warm) == "WarmPoolExecutor(jobs=2, warm)"
        assert repr(warm) == "WarmPoolExecutor(jobs=2, cold)"


class TestProgress:
    def test_serial_progress_in_canonical_order(self):
        seen = []
        run_sweep(
            _poly,
            [1.0, 2.0, 3.0],
            runs=2,
            label="prog",
            progress=lambda point, done, total: seen.append(
                (point, done, total)
            ),
        )
        assert seen == [(1.0, 1, 3), (2.0, 2, 3), (3.0, 3, 3)]

    def test_parallel_progress_counts_every_point(self):
        seen = []
        run_sweep(
            _poly,
            [1.0, 2.0, 3.0],
            runs=2,
            label="prog",
            executor=PoolExecutor(2, chunk_size=1),
            progress=lambda point, done, total: seen.append(
                (point, done, total)
            ),
        )
        assert sorted(p for p, _, _ in seen) == [1.0, 2.0, 3.0]
        assert [done for _, done, _ in sorted(seen, key=lambda s: s[1])] == [
            1, 2, 3,
        ]
        assert all(total == 3 for _, _, total in seen)


class TestRunCells:
    def test_results_in_cell_order(self):
        cells = [
            SweepCell(arg=x, seed_name=f"cells/{x}") for x in (3.0, 1.0, 2.0)
        ]
        serial = run_cells(_poly, cells)
        parallel = run_cells(
            _poly, cells, executor=PoolExecutor(3, chunk_size=1)
        )
        assert serial == parallel
        assert [s["m"] for s in serial] == [
            (derive_seed(0, f"cells/{x}") % 9973) * x for x in (3.0, 1.0, 2.0)
        ]

    def test_worker_derives_seed_from_master(self):
        cells = [SweepCell(arg=0.0, seed_name="cells/a")]
        one = run_cells(_poly, cells, master_seed=1)
        two = run_cells(_poly, cells, master_seed=2)
        assert one != two
        assert one == run_cells(_poly, cells, master_seed=1, executor="serial")

    def test_empty_cells(self):
        assert run_cells(_poly, []) == []
        assert run_cells(_poly, [], executor="pool:4") == []


class TestGridValidation:
    def test_nan_rejected(self):
        with pytest.raises(ConfigError, match="NaN"):
            run_sweep(_poly, [1.0, float("nan")], runs=1)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    def test_infinite_point_rejected(self, bad):
        with pytest.raises(ConfigError, match="non-finite"):
            run_sweep(_poly, [1.0, bad], runs=1)

    def test_inf_minus_inf_gets_clear_error(self):
        # Regression: the old guard summed the grid, so [inf, -inf]
        # produced a misleading "contains NaN" — now each non-finite
        # point is rejected explicitly.
        with pytest.raises(ConfigError, match="non-finite"):
            run_sweep(_poly, [float("inf"), float("-inf")], runs=1)

    def test_overflowing_finite_grid_accepted(self):
        # Regression: sum([1e308, 1e308]) overflows to inf, but every
        # point is finite — the sweep must run.
        result = run_sweep(
            lambda p, s: {"y": 1.0}, [1e308, 1e308], runs=1
        )
        assert result.means["y"] == [1.0, 1.0]


class TestAggregationOrdering:
    def test_permuted_key_insertion_orders_agree(self):
        # Regression: aggregate_runs iterated a raw set, so means/stds
        # insertion order depended on PYTHONHASHSEED. Two aggregations
        # of permuted-key samples must produce identically-ordered dicts.
        forward = [{"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 2.0, "b": 1.0, "c": 0.0}]
        backward = [
            {"c": 3.0, "b": 2.0, "a": 1.0},
            {"c": 0.0, "b": 1.0, "a": 2.0},
        ]
        means_f, stds_f = aggregate_runs(forward)
        means_b, stds_b = aggregate_runs(backward)
        assert list(means_f) == list(means_b) == ["a", "b", "c"]
        assert list(stds_f) == list(stds_b) == ["a", "b", "c"]
        assert means_f == means_b
        assert stds_f == stds_b

    def test_sweep_metric_dicts_sorted(self):
        result = run_sweep(_poly, [1.0], runs=2)
        assert list(result.means) == sorted(result.means)
        assert list(result.stds) == sorted(result.stds)
