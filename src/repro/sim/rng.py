"""Named, reproducible random-number streams.

Experiments must be reproducible bit-for-bit from a single master seed, and
adding a new component must not shift the random sequence observed by
existing components. Both properties follow from deriving an independent
:class:`random.Random` per *named stream* via SHA-256 of
``(master_seed, name)``.
"""

from __future__ import annotations

import hashlib
import random
import re
from typing import Mapping

#: Canonical registry of every named RNG stream in the tree, grouped by
#: *scope*. A scope is one seed-derivation level: two labels can only
#: collide when they are hashed with the same master seed, and a child
#: seed produced by ``derive_seed`` opens a fresh namespace — so sweep-cell
#: labels (hashed with the sweep's master seed) can never collide with
#: run-level streams (hashed with the per-cell seed the sweep derived).
#:
#: Entries are either static labels (``"network"``) or patterns whose
#: ``{placeholder}`` segments stand for one runtime-formatted ``/``-free
#: segment (``"process/{pid}"``). The determinism lint (rule DET004)
#: harvests every ``derive_seed``/``RngRegistry.stream`` label it can see
#: statically and checks it against this registry;
#: :func:`validate_stream_registry` checks the registry itself for
#: duplicate and colliding entries. Adding a stream to the code without
#: declaring it here fails ``repro lint src/``.
STREAM_REGISTRY: Mapping[str, tuple[str, ...]] = {
    # hashed with one simulation run's seed (SimulationHarness streams,
    # spec realization, experiment per-run streams)
    "run": (
        "network",
        "overlay",
        "contacts",
        "publish",
        # live-service publisher choice: a dedicated stream so the live
        # runtime's only extra decision never shifts the shared streams
        # (replay pins publishers instead of re-drawing)
        "live/publish",
        "static-membership",
        "process/{pid}",
        "baseline-process/{pid}",
        "group/{topic}",
        "pair/{sender}/{target}",
        "stream",
        "repair-victims",
        "a",
        "b",
        "c",
        "spec/subscriptions",
        "spec/publications",
        # one stream per part of a mixed schedule (parts cannot nest)
        "spec/publications/{index}",
        "spec/scenario",
        "spec/faults",
        "spec/churn",
        "spec/campaign",
    ),
    # hashed with a sweep's master seed (experiments/runner.py cells)
    "sweep": (
        "{label}/{index}",
        "{label}/{point}/{j}",
    ),
}

_PLACEHOLDER_RE = re.compile(r"\{[^{}]*\}")


def stream_pattern_regex(entry: str) -> re.Pattern[str]:
    """A regex matching the labels a registry entry can realize.

    Placeholders match exactly one non-empty ``/``-free segment.
    """
    parts = _PLACEHOLDER_RE.split(entry)
    return re.compile("[^/]+".join(re.escape(part) for part in parts))


def _segments_compatible(left: str, right: str) -> bool:
    """Can two pattern entries realize the same concrete label?"""
    left_parts = left.split("/")
    right_parts = right.split("/")
    if len(left_parts) != len(right_parts):
        return False
    for a, b in zip(left_parts, right_parts):
        if "{" in a or "{" in b:
            continue
        if a != b:
            return False
    return True


def validate_stream_registry(
    registry: Mapping[str, tuple[str, ...]] | None = None,
) -> list[str]:
    """Problems with the registry itself (empty list when it is sound).

    Within one scope: no duplicate entries, no static label that a
    pattern entry can also realize, and no two pattern entries that can
    realize the same concrete label (prefix/segment collisions).
    """
    if registry is None:
        registry = STREAM_REGISTRY
    problems: list[str] = []
    for scope, entries in sorted(registry.items()):
        seen: set[str] = set()
        for entry in entries:
            if entry in seen:
                problems.append(f"{scope}: duplicate entry {entry!r}")
            seen.add(entry)
        patterns = [entry for entry in entries if "{" in entry]
        statics = [entry for entry in entries if "{" not in entry]
        for static in statics:
            for pattern in patterns:
                if stream_pattern_regex(pattern).fullmatch(static):
                    problems.append(
                        f"{scope}: static label {static!r} collides with "
                        f"pattern {pattern!r}"
                    )
        for index, left in enumerate(patterns):
            for right in patterns[index + 1 :]:
                if _segments_compatible(left, right):
                    problems.append(
                        f"{scope}: patterns {left!r} and {right!r} can "
                        "realize the same label"
                    )
    return problems


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name.

    The derivation is stable across Python versions and platforms (unlike
    ``hash()``) because it uses SHA-256 of the canonical byte encoding.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A registry of named :class:`random.Random` streams.

    >>> rngs = RngRegistry(master_seed=42)
    >>> rngs.stream("network") is rngs.stream("network")
    True
    >>> rngs.stream("network") is not rngs.stream("membership")
    True
    """

    def __init__(self, master_seed: int):
        self._master_seed = master_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            # repro-lint: allow[DET004]: registry implementation — the caller's stream name is linted at each call site
            stream = random.Random(derive_seed(self._master_seed, name))
            self._streams[name] = stream
        return stream
