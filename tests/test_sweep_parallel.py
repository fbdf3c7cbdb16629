"""Parallel sweep engine: serial-vs-parallel equivalence and scheduling.

The contract under test: ``run_sweep(..., executor="pool:N")`` is
bit-identical to the serial path for every N, because workers re-derive
each cell's seed from ``(master_seed, label, point, j)`` and aggregation
happens in canonical (point, run) order. Worker failures must surface
with the failing (point, run, seed) identified, and a worker that dies
fails the sweep instead of hanging it. Every pool-semantics test takes
``make_pool`` and so runs against both owners of the one pool: the
entry point (a ``"pool:N"`` spec string, closed after the call) and the
test (a ``PoolExecutor`` instance, kept across calls).

Cross-backend equivalence (serial vs pool, arbitrary worker counts)
lives in ``test_executor.py``; this file covers the sweep layer on top
of the port.

The run functions used with parallel executors are module-level — the
pool pickles them by reference (and that requirement is itself under
test).
"""

import ast
import functools
import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.experiments import (
    ArtifactStore,
    CachingExecutor,
    PoolExecutor,
    SweepCell,
    SweepWorkerError,
    aggregate_runs,
    run_cells,
    run_sweep,
)
from repro.sim.rng import derive_seed

from pool_cells import (
    dies_while_sentinel,
    fail_at_two,
    poly,
    scaled,
    unpicklable_result,
)


def _survive_a_killed_worker(root):
    """A dead worker fails the sweep fast; the pool and the cache recover.

    Runs in a child interpreter (see ``TestWorkerDeath``), so a pool that
    would block forever on the dead worker times out there instead.
    """
    root = Path(root)
    sentinel = root / "die"
    sentinel.touch()
    run = functools.partial(dies_while_sentinel, sentinel=str(sentinel))
    cells = [
        SweepCell(arg=float(p), seed_name=f"kill/{p}", describe=f"point={p}")
        for p in range(1, 7)
    ]
    with PoolExecutor(2) as pool:
        started = time.perf_counter()
        with pytest.raises(SweepWorkerError) as excinfo:
            pool.map_cells(run, cells)
        assert time.perf_counter() - started < 10.0
        # Cell 1 (point 2.0) never finishes: the cause lists it, and the
        # error names the lowest unfinished cell.
        cause = excinfo.value.cause
        assert "worker died" in cause
        unfinished = ast.literal_eval(cause.rpartition(": ")[2])
        assert 1 in unfinished
        assert excinfo.value.cell == cells[min(unfinished)]
        # The broken pool is gone; the next call runs on a fresh one.
        clean = [cell for cell in cells if cell.arg != 2.0]
        assert pool.map_cells(run, clean) == run_cells(run, clean)
    store = ArtifactStore(root / "store")
    caching = CachingExecutor(PoolExecutor(2), store, "kill")
    try:
        with pytest.raises(SweepWorkerError):
            caching.map_cells(run, cells)
        # Each cell is stored from inside its worker as it finishes.
        stored = len(store)
        assert stored < len(cells)
        sentinel.unlink()
        results = caching.map_cells(run, cells)
        assert (caching.hits, caching.executed) == (
            stored,
            len(cells) - stored,
        )
        assert results == run_cells(run, cells)
    finally:
        caching.close()


@pytest.fixture(params=["spec", "instance"])
def make_pool(request):
    """``make_pool(jobs)`` for each owner of the one pool.

    ``spec`` hands the entry point ``"pool:N"``, so the call builds the
    pool and closes it before it returns; ``instance`` hands it a
    :class:`PoolExecutor` the test owns, kept open across calls and
    closed after the test.
    """
    made = []

    def make(jobs):
        if request.param == "spec":
            return f"pool:{jobs}"
        made.append(PoolExecutor(jobs))
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
            poly, grid, runs=runs, master_seed=master_seed, label="hyp"
        )
        parallel = run_sweep(
            poly,
            grid,
            runs=runs,
            master_seed=master_seed,
            label="hyp",
            executor=f"pool:{jobs}",
        )
        _sweeps_equal(serial, parallel)

    def test_partial_run_fn_parallel(self):
        run = functools.partial(scaled, factor=3.0)
        serial = run_sweep(run, [0.5, 1.5], runs=3, label="partial")
        parallel = run_sweep(
            run, [0.5, 1.5], runs=3, label="partial", executor="pool:2"
        )
        _sweeps_equal(serial, parallel)

    @pytest.mark.parametrize(
        "jobs, count", [(2, 2), (3, 12), (3, 13), (2, 17), (4, 40), (3, 100)]
    )
    def test_chunking_irrelevant_to_results(self, jobs, count):
        # Chunks are contiguous, about four per worker: these sizes give
        # one cell per chunk, an exact split, a short last chunk and
        # several cells per chunk. None of it may show in the results.
        cells = [
            SweepCell(arg=float(i), seed_name=f"chunk/{i}")
            for i in range(count)
        ]
        with PoolExecutor(jobs) as pool:
            parallel = pool.map_cells(poly, cells, master_seed=5)
        assert parallel == run_cells(poly, cells, master_seed=5)

    def test_duplicate_grid_points_reuse_seeds(self):
        # The documented label-collision caveat, at its smallest: the
        # same point twice in one grid gets identical seeds cell-for-cell.
        result = run_sweep(
            poly, [1.0, 1.0], runs=2, label="dup", executor="pool:2"
        )
        assert result.means["m"][0] == result.means["m"][1]


class TestWorkerErrors:
    def test_serial_error_identifies_cell(self):
        with pytest.raises(SweepWorkerError) as excinfo:
            run_sweep(fail_at_two, [1.0, 2.0], runs=2, label="err")
        message = str(excinfo.value)
        expected_seed = derive_seed(0, "err/2.0/0")
        assert "point=2.0" in message
        assert "run=0" in message
        assert str(expected_seed) in message
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_parallel_error_identifies_cell_and_traceback(self, make_pool):
        with pytest.raises(SweepWorkerError) as excinfo:
            run_sweep(
                fail_at_two,
                [1.0, 2.0],
                runs=2,
                label="err",
                executor=make_pool(2),
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
                    fail_at_two,
                    [2.0, 1.0],
                    runs=2,
                    label="err",
                    executor=make_pool(2),
                )
            assert "run=0" in str(excinfo.value)

    def test_unpicklable_result_surfaces_as_cell_failure(self, make_pool):
        # A result that cannot cross the process boundary must name its
        # cell, not abort the pool with an opaque MaybeEncodingError.
        with pytest.raises(SweepWorkerError) as excinfo:
            run_sweep(
                unpicklable_result,
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
            run_sweep(poly, [1.0], runs=1, executor="pool:0")

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
    def test_pool_rejects_bad_worker_count(self, bad):
        with pytest.raises(ConfigError, match="jobs"):
            PoolExecutor(bad)


@pytest.fixture
def leaves_no_pool_behind(monkeypatch):
    """``check(call)``: ``call`` must close every pool it built.

    Every :class:`PoolExecutor` made during the test is held here, so a
    pool nobody closed keeps its workers running and shows up in
    ``multiprocessing.active_children()`` (one merely dropped would shut
    them down in the background once collected, racing the check). The
    stdlib pool warns of nothing when left open; warnings are still
    recorded, after a collection inside the filter, so any other
    unclosed resource fails the check too.
    """
    made = []
    init = PoolExecutor.__init__

    def held(self, jobs):
        init(self, jobs)
        made.append(self)

    monkeypatch.setattr(PoolExecutor, "__init__", held)

    def check(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            call()
            gc.collect()
        assert [str(w.message) for w in caught] == []
        assert made, "the call built no pool"
        assert multiprocessing.active_children() == []

    yield check
    for pool in made:
        pool.close()


class TestSpecStringOwnership:
    """An executor built from a spec string is closed by who built it."""

    def test_run_sweep_closes_the_pool_it_built(self, leaves_no_pool_behind):
        leaves_no_pool_behind(
            lambda: run_sweep(poly, [1.0, 2.0], runs=2, executor="pool:2")
        )

    def test_sweep_scenario_closes_the_pool_it_built(
        self, leaves_no_pool_behind
    ):
        from repro.workloads.spec import sweep_scenario

        spec = {
            "name": "owned",
            "topics": {"kind": "chain", "depth": 1},
            "subscriptions": {"kind": "per_level", "counts": [2, 4]},
        }
        leaves_no_pool_behind(
            lambda: sweep_scenario(
                spec, "p_success", [0.5, 1.0], runs=2, executor="pool:2"
            )
        )

    def test_closed_even_when_a_cell_fails(self, leaves_no_pool_behind):
        def failing():
            with pytest.raises(SweepWorkerError):
                run_sweep(
                    fail_at_two, [1.0, 2.0], runs=2, executor="pool:2"
                )

        leaves_no_pool_behind(failing)

    def test_an_instance_stays_open_for_its_owner(self):
        with PoolExecutor(2) as pool:
            run_sweep(poly, [1.0, 2.0], runs=2, executor=pool)
            assert multiprocessing.active_children()
        assert multiprocessing.active_children() == []


class TestWorkerDeath:
    def test_killed_worker_fails_the_sweep_and_the_rerun_resumes(
        self, tmp_path
    ):
        # A child interpreter in its own session, with a timeout: a pool
        # that hangs on a dead worker fails this test instead of hanging
        # the suite, and takes its workers down with it.
        import repro

        paths = [
            str(Path(__file__).parent),
            str(Path(repro.__file__).parents[1]),
        ]
        script = (
            f"import sys; sys.path[:0] = {paths!r}; "
            "from test_sweep_parallel import _survive_a_killed_worker; "
            f"_survive_a_killed_worker({str(tmp_path)!r})"
        )
        with subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        ) as child:
            try:
                output, _ = child.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                raise
        assert child.returncode == 0, output


class TestProgress:
    def test_serial_progress_in_canonical_order(self):
        seen = []
        run_sweep(
            poly,
            [1.0, 2.0, 3.0],
            runs=2,
            label="prog",
            progress=lambda point, done, total: seen.append(
                (point, done, total)
            ),
        )
        assert seen == [(1.0, 1, 3), (2.0, 2, 3), (3.0, 3, 3)]

    def test_parallel_progress_counts_every_point(self, make_pool):
        seen = []
        run_sweep(
            poly,
            [1.0, 2.0, 3.0],
            runs=2,
            label="prog",
            executor=make_pool(2),
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
    def test_results_in_cell_order(self, make_pool):
        cells = [
            SweepCell(arg=x, seed_name=f"cells/{x}") for x in (3.0, 1.0, 2.0)
        ]
        serial = run_cells(poly, cells)
        parallel = run_cells(poly, cells, executor=make_pool(3))
        assert serial == parallel
        assert [s["m"] for s in serial] == [
            (derive_seed(0, f"cells/{x}") % 9973) * x for x in (3.0, 1.0, 2.0)
        ]

    def test_worker_derives_seed_from_master(self):
        cells = [SweepCell(arg=0.0, seed_name="cells/a")]
        one = run_cells(poly, cells, master_seed=1)
        two = run_cells(poly, cells, master_seed=2)
        assert one != two
        assert one == run_cells(poly, cells, master_seed=1, executor="serial")

    def test_empty_cells(self):
        assert run_cells(poly, []) == []
        assert run_cells(poly, [], executor="pool:4") == []


class TestGridValidation:
    def test_nan_rejected(self):
        with pytest.raises(ConfigError, match="NaN"):
            run_sweep(poly, [1.0, float("nan")], runs=1)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    def test_infinite_point_rejected(self, bad):
        with pytest.raises(ConfigError, match="non-finite"):
            run_sweep(poly, [1.0, bad], runs=1)

    def test_inf_minus_inf_gets_clear_error(self):
        # Regression: the old guard summed the grid, so [inf, -inf]
        # produced a misleading "contains NaN" — now each non-finite
        # point is rejected explicitly.
        with pytest.raises(ConfigError, match="non-finite"):
            run_sweep(poly, [float("inf"), float("-inf")], runs=1)

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
        result = run_sweep(poly, [1.0], runs=2)
        assert list(result.means) == sorted(result.means)
        assert list(result.stds) == sorted(result.stds)
