"""Content-addressed artifact store for sweep-cell results.

Every sweep cell in the tree is a pure function of ``(run_key,
master_seed, seed_name)`` — ``run_key`` identifying the run function's
configuration (for scenario cells: the canonical digest of the spec and
the swept field), the other two fixing the cell's derived seed. That
purity is what makes per-cell results cacheable *content-addressed*:
the cache key is a SHA-256 over exactly those identity fields plus the
artifact schema version, so

* re-running a finished sweep with the same cache executes **zero**
  cells and reproduces byte-identical payloads,
* an interrupted sweep resumes — results are persisted per cell as they
  complete (atomically, in the worker), so only unfinished cells
  execute on the re-run,
* any change to the spec, the seed discipline or the artifact schema
  changes the key and the stale entry is silently ignored, recomputed
  and re-stored — never served.

Writes are atomic (temp file + ``os.replace`` in the target directory),
so a crash mid-write can never leave a half-written entry that a later
run would trust, and concurrent pool workers can write the same store
without locks (last replace wins; both wrote identical bytes anyway).

Results must be JSON-serializable and JSON-stable (``dict[str, float]``
metrics dicts are — floats round-trip exactly). That is every scenario
cell in the tree. ``put`` encodes the record with no ``default``
fallback: a result holding a value JSON cannot encode (a ``Decimal``, a
set, ...) raises :class:`~repro.errors.ConfigError` naming the cell's
``seed_name`` and the value's type before anything is written, instead
of being stored as its ``str`` and served back as a string on every hit.

Read path: a hit is one file read and one parse. ``get`` hashes the
identity fields into the key (one canonical encode), opens
``<root>/<key[:2]>/<key>.json`` by a string path built from a root
string held once, reads it in binary, decodes it as UTF-8 and parses
it; every identity field is then checked against the request. There is
no in-memory memo: every hit reads the store.

Layout: ``<root>/<key[:2]>/<key>.json``, one record per cell::

    {"schema": "repro-artifact-v1", "run_key": ..., "seed_name": ...,
     "master_seed": ..., "result": {...}}
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ConfigError
from repro.experiments.executor import (
    Executor,
    OnResultFn,
    SweepCell,
)

#: Version stamp baked into every cell key AND every record. Bump it when
#: the result format or the seeding contract changes — every pre-bump
#: entry then misses (different key) and, belt-and-braces, fails the
#: record check even if a file were copied into place by hand.
ARTIFACT_SCHEMA = "repro-artifact-v1"


# Built once: ``json.dumps`` with any keyword builds a fresh encoder per
# call, which a cached sweep would pay twice per cell.
_CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=str
)


def canonical_json(payload: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace — digest-stable."""
    return _CANONICAL_ENCODER.encode(payload)


def write_json_atomic(path: pathlib.Path, payload: Any, *, indent=None) -> None:
    """Write ``payload`` as JSON to ``path`` via temp file + ``os.replace``.

    Values JSON cannot encode are written as their ``str``. The temp
    file lives in the target directory so the replace is same-filesystem
    and atomic; a crash mid-write leaves only a stray ``.tmp`` file,
    never a truncated target.
    """
    _write_atomic(
        pathlib.Path(path), json.dumps(payload, indent=indent, default=str)
    )


def _write_atomic(path: pathlib.Path, text: str) -> None:
    """``text`` plus a newline to ``path`` via temp file + ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise


class ArtifactStore:
    """Per-cell results under one root directory, content-addressed."""

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)
        self._prefix = os.path.join(str(self.root), "")

    def cell_key(
        self, *, run_key: str, seed_name: str, master_seed: int
    ) -> str:
        """The content address of one cell's result."""
        return hashlib.sha256(
            canonical_json(
                {
                    "schema": ARTIFACT_SCHEMA,
                    "run_key": run_key,
                    "seed_name": seed_name,
                    "master_seed": master_seed,
                }
            ).encode("utf-8")
        ).hexdigest()

    def _location(self, key: str) -> str:
        """The entry's file as a string: the one place that knows the layout."""
        return f"{self._prefix}{key[:2]}{os.sep}{key}.json"

    def _path(self, key: str) -> pathlib.Path:
        return pathlib.Path(self._location(key))

    def get(
        self, *, run_key: str, seed_name: str, master_seed: int
    ) -> Mapping | None:
        """The stored record for a cell, or None on miss.

        A record only counts as a hit when its identity fields match the
        request exactly — an undecodable or corrupt file, a schema bump or
        a stale entry whose content disagrees with its address is a miss
        (recomputed, never served).
        """
        location = self._location(
            self.cell_key(
                # repro-lint: allow[DET004]: seed_name is forwarded verbatim from the cell; each sweep driver declares and lints the label
                run_key=run_key, seed_name=seed_name, master_seed=master_seed
            )
        )
        try:
            with open(location, "rb") as handle:
                record = json.loads(handle.read().decode("utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(record, dict) or "result" not in record:
            return None
        if (
            record.get("schema") != ARTIFACT_SCHEMA
            or record.get("run_key") != run_key
            or record.get("seed_name") != seed_name
            or record.get("master_seed") != master_seed
        ):
            return None
        return record

    def put(
        self,
        result: Any,
        *,
        run_key: str,
        seed_name: str,
        master_seed: int,
    ) -> None:
        """Store one cell's result atomically (safe from pool workers).

        Raises :class:`~repro.errors.ConfigError`, writing nothing, when
        the result holds a value JSON cannot encode.
        """
        try:
            text = json.dumps(
                {
                    "schema": ARTIFACT_SCHEMA,
                    "run_key": run_key,
                    "seed_name": seed_name,
                    "master_seed": master_seed,
                    "result": result,
                }
            )
        except TypeError as exc:
            raise ConfigError(
                f"cell {seed_name!r}: result cannot be stored as JSON: {exc}"
            ) from exc
        key = self.cell_key(
            # repro-lint: allow[DET004]: seed_name is forwarded verbatim from the cell; each sweep driver declares and lints the label
            run_key=run_key, seed_name=seed_name, master_seed=master_seed
        )
        _write_atomic(self._path(key), text)


def _caching_run(
    arg_with_name: tuple[Any, str],
    seed: int,
    *,
    inner: Callable[[Any, int], Any],
    root: str,
    run_key: str,
    master_seed: int,
) -> Any:
    """Worker-side wrapper: evaluate, then persist the result per cell.

    The store write happens *inside the worker*, immediately after the
    cell completes — that is what makes an interrupted sweep resumable:
    everything finished before the interruption is already on disk.
    """
    arg, seed_name = arg_with_name
    result = inner(arg, seed)
    ArtifactStore(root).put(
        # repro-lint: allow[DET004]: seed_name is forwarded verbatim from the cell; each sweep driver declares and lints the label
        result, run_key=run_key, seed_name=seed_name, master_seed=master_seed
    )
    return result


class CachingExecutor:
    """Wrap any executor with per-cell artifact caching.

    ``map_cells`` first resolves every cell against the store; only the
    misses are handed to the inner executor (with results persisted
    cell-by-cell as they complete), and the returned list is in cell
    order regardless of the hit/miss split — so a cached sweep is
    bit-identical to an uncached one. ``hits``/``executed`` report the
    split of the most recent call.

    Cached cells are announced to ``on_result`` first (canonical
    order), then executed cells in completion order; per-group progress
    adapters (:func:`~repro.experiments.runner.grouped_progress`) work
    unchanged.
    """

    def __init__(self, inner: Executor, store: ArtifactStore, run_key: str):
        if not isinstance(run_key, str) or not run_key:
            raise ConfigError(
                f"run_key must be a non-empty string, got {run_key!r}"
            )
        self.inner = inner
        self.store = store
        self.run_key = run_key
        #: hit/executed counts of the most recent map_cells call.
        self.hits = 0
        self.executed = 0

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
        results: list[Any] = [None] * total
        missing: list[tuple[int, SweepCell]] = []
        for index, cell in enumerate(cells):
            record = self.store.get(
                run_key=self.run_key,
                # repro-lint: allow[DET004]: seed_name is forwarded verbatim from the cell; each sweep driver declares and lints the label
                seed_name=cell.seed_name,
                master_seed=master_seed,
            )
            if record is None:
                missing.append((index, cell))
            else:
                results[index] = record["result"]
        self.hits = total - len(missing)
        self.executed = len(missing)
        done = 0
        if on_result is not None:
            hit_indices = {index for index, _ in missing}
            for index in range(total):
                if index not in hit_indices:
                    done += 1
                    on_result(index, done, total)
        if not missing:
            return results
        wrapped = functools.partial(
            _caching_run,
            inner=run,
            root=str(self.store.root),
            run_key=self.run_key,
            master_seed=master_seed,
        )
        sub_cells = [
            SweepCell(
                arg=(cell.arg, cell.seed_name),
                # repro-lint: allow[DET004]: seed_name is forwarded verbatim from the cell; each sweep driver declares and lints the label
                seed_name=cell.seed_name,
                describe=cell.describe,
            )
            for _, cell in missing
        ]
        hits = self.hits

        def sub_on_result(sub_index: int, sub_done: int, _sub_total: int):
            if on_result is not None:
                on_result(missing[sub_index][0], hits + sub_done, total)

        sub_results = self.inner.map_cells(
            wrapped,
            sub_cells,
            master_seed=master_seed,
            on_result=sub_on_result if on_result is not None else None,
        )
        for (index, _), result in zip(missing, sub_results):
            results[index] = result
        return results

    def close(self) -> None:
        """Close the executor this one wraps."""
        self.inner.close()
