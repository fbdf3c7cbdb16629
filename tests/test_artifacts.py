"""The artifact store and ``--cache``: hits, resume, staleness, atomicity.

The contract under test: per-cell results are content-addressed by
``(schema, run_key, seed_name, master_seed)``; a warmed cache re-runs a
sweep with **zero** cells executed and byte-identical output; an
interrupted sweep resumes (finished cells are already on disk because
workers persist them immediately); and any stale, corrupt or
wrongly-keyed entry is a miss that gets recomputed — never served.
"""

import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import repro

from repro.cli import main
from repro.errors import ConfigError
from repro.experiments.artifacts import (
    ARTIFACT_SCHEMA,
    ArtifactStore,
    CachingExecutor,
    write_json_atomic,
)
from repro.experiments.executor import (
    PoolExecutor,
    SerialExecutor,
    SweepCell,
    SweepWorkerError,
)

SPEC = {
    "name": "cache-probe",
    "topics": {"kind": "chain", "depth": 2, "prefix": "t"},
    "subscriptions": {"kind": "per_level", "counts": [3, 8, 20]},
    "publications": {"kind": "single", "level": -1},
    "failures": {"kind": "stillborn", "alive_fraction": 0.7},
    "params": {"b": 3, "c": 5, "g": 5, "a": 1, "z": 3, "fanout_log_base": 10},
    "p_success": 0.85,
}


def stored_entries(store) -> int:
    """How many cell entries ``store`` holds on disk."""
    return sum(1 for _ in store.root.glob("*/*.json"))


def _metrics(point, seed):
    return {"m": float((seed % 9973) * point), "n": float(seed % 11)}


def _cells(points, label="cache"):
    return [
        SweepCell(arg=p, seed_name=f"{label}/{p}", describe=f"point={p}")
        for p in points
    ]


class TestArtifactStore:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        result = {"latency": 1.25, "messages": 42.0}
        store.put(result, run_key="rk", seed_name="s/0", master_seed=7)
        record = store.get(run_key="rk", seed_name="s/0", master_seed=7)
        assert record["result"] == result
        assert record["schema"] == ARTIFACT_SCHEMA
        assert stored_entries(store) == 1

    def test_layout_is_sharded_by_key_prefix(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put({"x": 1.0}, run_key="rk", seed_name="s/0", master_seed=0)
        key = store.cell_key(run_key="rk", seed_name="s/0", master_seed=0)
        assert (tmp_path / key[:2] / f"{key}.json").is_file()

    def test_every_identity_field_addresses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put({"x": 1.0}, run_key="rk", seed_name="s/0", master_seed=0)
        assert store.get(run_key="other", seed_name="s/0", master_seed=0) is None
        assert store.get(run_key="rk", seed_name="s/1", master_seed=0) is None
        assert store.get(run_key="rk", seed_name="s/0", master_seed=1) is None
        assert store.get(run_key="rk", seed_name="s/0", master_seed=0)

    def test_empty_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "never-created")
        assert stored_entries(store) == 0
        assert store.get(run_key="rk", seed_name="s", master_seed=0) is None

    def test_record_bytes_are_pinned(self, tmp_path):
        # The record format a store written by an earlier version holds:
        # json.dumps' defaults (ASCII, ", " and ": "), one trailing newline.
        store = ArtifactStore(tmp_path)
        result = {
            "m": 0.1, "n": -0.0, "big": 1e300, "inf": float("inf"),
            "nan": float("nan"), "i": 3, "label": "café",
            "list": [1.5, None, True],
        }
        store.put(result, run_key="rk", seed_name="s/0", master_seed=7)
        key = store.cell_key(run_key="rk", seed_name="s/0", master_seed=7)
        assert key == (
            "b12ed62620f779ec78cefeb9ecb9a5658257e8363afbdc1219a119d42a16192c"
        )
        assert store._path(key).read_bytes() == (
            b'{"schema": "repro-artifact-v1", "run_key": "rk", '
            b'"seed_name": "s/0", "master_seed": 7, "result": {"m": 0.1, '
            b'"n": -0.0, "big": 1e+300, "inf": Infinity, "nan": NaN, '
            b'"i": 3, "label": "caf\\u00e9", "list": [1.5, null, true]}}\n'
        )


class TestNonJsonResultsAreRefused:
    """A result JSON cannot encode is never stored as its ``str``: it was
    served back as ``{"x": "1.5"}`` for ``{"x": Decimal("1.5")}``."""

    def test_put_raises_and_writes_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ConfigError, match=r"'s/0'.*Decimal"):
            store.put(
                {"x": Decimal("1.5")}, run_key="rk", seed_name="s/0",
                master_seed=0,
            )
        assert list(tmp_path.iterdir()) == []
        assert store.get(run_key="rk", seed_name="s/0", master_seed=0) is None

    def test_a_caching_sweep_fails_the_cell(self, tmp_path):
        store = ArtifactStore(tmp_path)
        caching = CachingExecutor(SerialExecutor(), store, "rk")
        with pytest.raises(SweepWorkerError, match="Decimal") as failure:
            caching.map_cells(_decimal_metrics, _cells([2.0]))
        assert isinstance(failure.value.__cause__, ConfigError)
        assert stored_entries(store) == 0


class TestStaleEntriesAreMisses:
    def _entry_path(self, store):
        key = store.cell_key(run_key="rk", seed_name="s/0", master_seed=0)
        return store._path(key)

    def test_corrupt_json_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put({"x": 1.0}, run_key="rk", seed_name="s/0", master_seed=0)
        self._entry_path(store).write_text("{truncated", encoding="utf-8")
        assert store.get(run_key="rk", seed_name="s/0", master_seed=0) is None

    def test_undecodable_bytes_are_a_miss(self, tmp_path):
        # Bit-rot or a stray binary: bytes that are not UTF-8 raise a
        # UnicodeDecodeError, not a JSONDecodeError. Still a miss, and a
        # sweep over the cell recomputes it and stores it again.
        store = ArtifactStore(tmp_path)
        key = dict(run_key="rk", seed_name="cache/2.0", master_seed=0)
        store.put({"x": 1.0}, **key)
        store._path(store.cell_key(**key)).write_bytes(b'\xff\xfe{"x":')
        assert store.get(**key) is None
        caching = CachingExecutor(SerialExecutor(), store, "rk")
        expected = [_metrics(2.0, _seed_for("cache/2.0"))]
        assert caching.map_cells(_metrics, _cells([2.0])) == expected
        assert (caching.hits, caching.executed) == (0, 1)
        assert [store.get(**key)["result"]] == expected

    def test_digest_mismatch_is_a_miss(self, tmp_path):
        # A file copied to the wrong address: its identity fields
        # disagree with the key it is stored under — never served.
        store = ArtifactStore(tmp_path)
        store.put({"x": 1.0}, run_key="rk", seed_name="s/0", master_seed=0)
        path = self._entry_path(store)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["seed_name"] = "tampered/0"
        path.write_text(json.dumps(record), encoding="utf-8")
        assert store.get(run_key="rk", seed_name="s/0", master_seed=0) is None

    def test_schema_bump_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put({"x": 1.0}, run_key="rk", seed_name="s/0", master_seed=0)
        path = self._entry_path(store)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["schema"] = "repro-artifact-v0"
        path.write_text(json.dumps(record), encoding="utf-8")
        assert store.get(run_key="rk", seed_name="s/0", master_seed=0) is None

    def test_stale_entry_is_recomputed_and_restored(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put({"x": 1.0}, run_key="rk", seed_name="cache/2.0", master_seed=0)
        path = store._path(
            store.cell_key(run_key="rk", seed_name="cache/2.0", master_seed=0)
        )
        path.write_text("not json", encoding="utf-8")
        caching = CachingExecutor(SerialExecutor(), store, "rk")
        results = caching.map_cells(_metrics, _cells([2.0]))
        assert caching.hits == 0 and caching.executed == 1
        assert results == [_metrics(2.0, _seed_for("cache/2.0"))]
        # The recomputed result was written back over the stale entry.
        assert store.get(run_key="rk", seed_name="cache/2.0", master_seed=0)


def _decimal_metrics(point, seed):
    return {"x": Decimal(point)}


def _seed_for(name, master_seed=0):
    from repro.sim.rng import derive_seed

    return derive_seed(master_seed, name)  # repro-lint: allow[DET004]: test helper echoing the cell's own label


class TestAtomicWrites:
    def test_success_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "deep" / "payload.json"
        write_json_atomic(target, {"a": 1}, indent=2)
        assert json.loads(target.read_text(encoding="utf-8")) == {"a": 1}
        assert [p.name for p in target.parent.iterdir()] == ["payload.json"]

    def test_failed_write_preserves_existing_target(self, tmp_path):
        target = tmp_path / "payload.json"
        write_json_atomic(target, {"a": 1})

        class Unserializable:
            def __str__(self):
                raise RuntimeError("cannot stringify")

        with pytest.raises(RuntimeError, match="cannot stringify"):
            write_json_atomic(target, {"bad": Unserializable()})
        # Old contents intact, no .tmp debris left behind.
        assert json.loads(target.read_text(encoding="utf-8")) == {"a": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["payload.json"]


_KILLED_WRITER = """
import os, sys
from repro.experiments.artifacts import ArtifactStore

def die_before_replace(source, target):
    os._exit(17)

os.replace = die_before_replace
ArtifactStore(sys.argv[1]).put(
    {"x": 1.0}, run_key="rk", seed_name="cache/2.0", master_seed=0
)
"""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    return env


class TestKilledWriter:
    def test_litter_is_never_served(self, tmp_path):
        # A writer killed between mkstemp and os.replace leaves a complete
        # record in <key>.json.*.tmp: only <key>.json is ever read.
        child = subprocess.run(
            [sys.executable, "-c", _KILLED_WRITER, str(tmp_path)],
            env=_child_env(), capture_output=True, text=True, timeout=60,
        )
        assert child.returncode == 17, child.stderr
        store = ArtifactStore(tmp_path)
        key = dict(run_key="rk", seed_name="cache/2.0", master_seed=0)
        entry = store._path(store.cell_key(**key))
        litter = list(entry.parent.glob(entry.name + ".*.tmp"))
        assert len(litter) == 1
        assert json.loads(litter[0].read_text(encoding="utf-8"))["result"] == {
            "x": 1.0
        }
        assert store.get(**key) is None
        assert stored_entries(store) == 0

        caching = CachingExecutor(SerialExecutor(), store, "rk")
        expected = [_metrics(2.0, _seed_for("cache/2.0"))]
        assert caching.map_cells(_metrics, _cells([2.0])) == expected
        assert (caching.hits, caching.executed) == (0, 1)
        assert caching.map_cells(_metrics, _cells([2.0])) == expected
        assert (caching.hits, caching.executed) == (1, 0)
        assert store.get(**key)["result"] == expected[0]
        assert stored_entries(store) == 1

        entry.unlink()
        assert litter[0].is_file()
        assert store.get(**key) is None
        assert stored_entries(store) == 0


_BARRIER_SWEEP = Path(__file__).with_name("barrier_sweep.py")


class TestSharedCache:
    def test_concurrent_sweeps_on_one_store(self, tmp_path):
        # barrier_sweep.py holds each sweep's first put until both sweeps
        # reach theirs, so both miss and compute the first cell together.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC), encoding="utf-8")
        cache = tmp_path / "cache"
        barrier = tmp_path / "barrier"
        barrier.mkdir()

        def sweep(out):
            return subprocess.Popen(
                [
                    sys.executable, str(_BARRIER_SWEEP), str(barrier), "2",
                    "--executor", "serial",
                    "scenario", "sweep", str(spec),
                    "--field", "failures.alive_fraction",
                    "--values", "0.5", "0.7", "1.0",
                    "--runs", "2", "--seed", "3",
                    "--cache", str(cache), "--out", str(out),
                ],
                env=_child_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
            )

        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        children = [sweep(out) for out in outs]
        splits = []
        for child in children:
            _, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            report = re.search(r"cache: (\d+) hit\(s\), (\d+) executed", err)
            assert report, err
            splits.append(tuple(map(int, report.groups())))
        # Both sweeps executed cells (they overlapped), and each served
        # the rest of the six from what the other had stored.
        for hits, executed in splits:
            assert executed >= 1 and hits + executed == 6, splits
        assert len(os.listdir(barrier)) == 2
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert stored_entries(ArtifactStore(cache)) == 6
        assert list(cache.rglob("*.tmp")) == []


class TestCachingExecutor:
    def test_cold_then_warm(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cells = _cells([1.0, 2.0, 3.0])
        uncached = SerialExecutor().map_cells(_metrics, cells, master_seed=5)

        caching = CachingExecutor(SerialExecutor(), store, "rk")
        cold = caching.map_cells(_metrics, cells, master_seed=5)
        assert (caching.hits, caching.executed) == (0, 3)
        assert cold == uncached

        warm = caching.map_cells(_metrics, cells, master_seed=5)
        assert (caching.hits, caching.executed) == (3, 0)
        assert warm == uncached

    def test_mixed_hits_keep_cell_order(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cells = _cells([1.0, 2.0, 3.0, 4.0])
        uncached = SerialExecutor().map_cells(_metrics, cells)
        # Pre-populate only the middle cells, then fill via a real pool.
        for cell, result in list(zip(cells, uncached))[1:3]:
            store.put(
                result,
                run_key="rk",
                # repro-lint: allow[DET004]: test forwards the cell's own label
                seed_name=cell.seed_name,
                master_seed=0,
            )
        caching = CachingExecutor(PoolExecutor(2), store, "rk")
        try:
            results = caching.map_cells(_metrics, cells)
        finally:
            caching.close()
        assert (caching.hits, caching.executed) == (2, 2)
        assert results == uncached
        assert stored_entries(store) == 4

    def test_resume_after_interrupt(self, tmp_path):
        # Simulate an interrupted sweep: the run fn dies partway, but
        # every finished cell was already persisted. The re-run must
        # execute only the unfinished cells.
        store = ArtifactStore(tmp_path)
        cells = _cells([1.0, 2.0, 3.0, 4.0])

        def _dies_at_three(point, seed):
            if point == 3.0:
                raise RuntimeError("simulated crash")
            return _metrics(point, seed)

        caching = CachingExecutor(SerialExecutor(), store, "rk")
        with pytest.raises(SweepWorkerError, match="point=3.0"):
            caching.map_cells(_dies_at_three, cells)
        assert stored_entries(store) == 2  # cells before the crash are on disk

        evaluated = []

        def _recording(point, seed):
            evaluated.append(point)
            return _metrics(point, seed)

        results = caching.map_cells(_recording, cells)
        assert (caching.hits, caching.executed) == (2, 2)
        assert evaluated == [3.0, 4.0]
        assert results == SerialExecutor().map_cells(_metrics, cells)

    def test_on_result_announces_every_cell_once(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cells = _cells([1.0, 2.0, 3.0])
        uncached = SerialExecutor().map_cells(_metrics, cells)
        store.put(
            uncached[1],
            run_key="rk",
            # repro-lint: allow[DET004]: test forwards the cell's own label
            seed_name=cells[1].seed_name,
            master_seed=0,
        )
        seen = []
        caching = CachingExecutor(SerialExecutor(), store, "rk")
        caching.map_cells(
            _metrics,
            cells,
            on_result=lambda i, done, total: seen.append((i, done, total)),
        )
        assert sorted(i for i, _, _ in seen) == [0, 1, 2]
        assert sorted(done for _, done, _ in seen) == [1, 2, 3]
        assert all(total == 3 for _, _, total in seen)

    def test_run_key_validation(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ConfigError, match="run_key"):
            CachingExecutor(SerialExecutor(), store, "")
        with pytest.raises(ConfigError, match="run_key"):
            CachingExecutor(SerialExecutor(), store, 42)

    def test_different_run_keys_do_not_share_entries(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cells = _cells([1.0])
        CachingExecutor(SerialExecutor(), store, "rk-a").map_cells(
            _metrics, cells
        )
        caching_b = CachingExecutor(SerialExecutor(), store, "rk-b")
        caching_b.map_cells(_metrics, cells)
        assert caching_b.executed == 1
        assert stored_entries(store) == 2


class TestCliCache:
    def _spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SPEC), encoding="utf-8")
        return str(path)

    def test_sweep_cache_rerun_executes_zero_cells(self, tmp_path, capsys):
        spec = self._spec_path(tmp_path)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        base = [
            "scenario", "sweep", spec,
            "--field", "failures.alive_fraction",
            "--values", "0.5", "1.0",
            "--runs", "2", "--seed", "3",
            "--cache", str(tmp_path / "cache"),
        ]
        assert main(base + ["--out", str(out_a)]) == 0
        first = capsys.readouterr()
        assert "cache: 0 hit(s), 4 executed" in first.err

        assert main(base + ["--out", str(out_b)]) == 0
        second = capsys.readouterr()
        assert "cache: 4 hit(s), 0 executed" in second.err
        # Acceptance: re-render from cache is byte-identical.
        assert out_a.read_bytes() == out_b.read_bytes()
        assert first.out == second.out

    def test_run_cache_rerun_executes_zero_cells(self, tmp_path, capsys):
        spec = self._spec_path(tmp_path)
        base = [
            "scenario", "run", spec,
            "--runs", "3", "--seed", "1",
            "--cache", str(tmp_path / "cache"),
        ]
        assert main(base) == 0
        first = capsys.readouterr()
        assert "cache: 0 hit(s), 3 executed" in first.err
        assert main(base) == 0
        second = capsys.readouterr()
        assert "cache: 3 hit(s), 0 executed" in second.err
        assert first.out == second.out

    def test_run_and_sweep_caches_are_disjoint(self, tmp_path, capsys):
        # Same spec, same seed — but a plain run and a sweep must not
        # serve each other's cells (different run_key kinds).
        spec = self._spec_path(tmp_path)
        cache = str(tmp_path / "cache")
        assert main([
            "scenario", "run", spec, "--runs", "2", "--cache", cache,
        ]) == 0
        capsys.readouterr()
        assert main([
            "scenario", "sweep", spec,
            "--field", "failures.alive_fraction", "--values", "0.7",
            "--runs", "2", "--cache", cache,
        ]) == 0
        assert "cache: 0 hit(s), 2 executed" in capsys.readouterr().err

    def test_uncached_commands_print_no_cache_line(self, tmp_path, capsys):
        spec = self._spec_path(tmp_path)
        assert main(["scenario", "run", spec, "--runs", "1"]) == 0
        assert "cache:" not in capsys.readouterr().err

    def test_out_write_is_atomic_over_existing_file(self, tmp_path, capsys):
        # --out replaces an existing payload wholesale; a pre-existing
        # file with junk content never bleeds into the new payload.
        spec = self._spec_path(tmp_path)
        out = tmp_path / "payload.json"
        out.write_text("junk to be replaced", encoding="utf-8")
        assert main([
            "scenario", "run", spec, "--runs", "1", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["spec"]["name"] == "cache-probe"
        assert not list(tmp_path.glob("payload.json.*"))
