"""Measurement plumbing of the ledger: reference clock, spans, attribution.

Three things live here, all owned by the benchmark and none touching the
program under test:

* :func:`spin` — a fixed pure-Python loop timed next to every chunk of
  work. This box's two shared cores drift between a fast and a slow state
  (±12 %, dwell of seconds), and a raw wall-clock median inherits that
  drift. Every timing the ledger reports is therefore scaled by
  ``REFERENCE_SPIN_S / (adjacent spin time)``: seconds as the box's fast
  state would have taken them. The raw figures are printed beside them.
* :class:`Tracer` — in-memory spans (name, start, end, parent, workload,
  op) around the driver's own calls into a layer; written out at exit.
* :func:`attribute_profile` — per-package self time from a ``cProfile``
  table, with builtin and stdlib frames charged to the package that
  called them.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Mapping

#: What :func:`spin` takes in this box's fast state. A constant, so that
#: scaled times read as ordinary seconds; its exact value cancels in any
#: comparison of two runs.
REFERENCE_SPIN_S = 0.0022
_SPIN_ITERATIONS = 60_000

#: The layers of the ladder: packages under ``src/repro/``, ``harness`` for
#: the top-level modules (``runtime.py``, ``validation.py``, ...), the
#: stdlib event loop, and whatever cannot be charged to any of them.
REPRO_PACKAGES = (
    "sim", "net", "core", "membership", "metrics", "failures", "topics",
    "workloads", "experiments", "service",
)
LAYERS = REPRO_PACKAGES + ("harness", "asyncio", "other")

_MAX_CALLER_DEPTH = 24


def spin() -> float:
    """Time the reference loop once (≈ 2–3 ms); returns seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(_SPIN_ITERATIONS):
        acc += i * i
    return time.perf_counter() - start


def scale_factor(spin_before: float, spin_after: float) -> float:
    """Multiplier turning a raw duration measured between the two spins
    into reference seconds."""
    return REFERENCE_SPIN_S / ((spin_before + spin_after) / 2.0)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        tracer = self.tracer
        self.record["parent"] = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.spans.append(self.record)
        return False


class Tracer:
    """Spans kept in memory; a disabled tracer records nothing and its
    ``span()`` costs one attribute test."""

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        #: profiled self seconds per layer, filled in by a traced run
        self.layer_seconds: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            return _NO_SPAN
        self._next_id += 1
        return _Span(
            self,
            {"id": self._next_id, "name": name, "workload": self.workload, "op": op},
        )

    def by_op(self, *names: str) -> dict[int | None, tuple[float, int]]:
        """(seconds, span count) in spans called any of ``names``, keyed
        by the op they belong to."""
        out: dict[int | None, tuple[float, int]] = {}
        for record in self.spans:
            if record["name"] in names:
                seconds, count = out.get(record["op"], (0.0, 0))
                out[record["op"]] = (
                    seconds + record["end"] - record["start"], count + 1
                )
        return out


# ----------------------------------------------------------------------
# Profile attribution
# ----------------------------------------------------------------------
def layer_of(filename: str, bench_dir: str = "") -> str | None:
    """The layer a profiled frame belongs to, or None for a builtin or
    stdlib frame whose time is charged to its caller."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker >= 0:
        rest = path[marker + len("/repro/"):].split("/")
        if len(rest) == 1:
            return "harness"
        return rest[0] if rest[0] in REPRO_PACKAGES else "other"
    if "/asyncio/" in path or path.endswith("/selectors.py"):
        return "asyncio"
    if bench_dir and path.startswith(bench_dir.replace("\\", "/")):
        return "other"
    return None


def attribute_profile(
    stats: Mapping[tuple, tuple], bench_dir: str = ""
) -> dict[str, float]:
    """Self seconds per layer from a ``pstats`` table.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tottime, cumtime,
    callers)`` with ``callers`` mapping a calling function to ``(nc, cc,
    tottime, cumtime)`` — the shape ``pstats.Stats(profile).stats`` has.
    A frame inside ``src/repro/`` is charged to its package. Any other
    frame's self time is split over its callers (by the self time the
    table records per caller), and a caller that is itself outside the
    program passes its share further up, weighted by cumulative time,
    until a program frame is reached. A caller reachable only through the
    cycle being resolved (``deepcopy`` ↔ ``_deepcopy_dict``) is skipped
    and its share goes to the callers that entered the cycle; a frame
    with no caller at all is ``other``.
    """
    memo: dict[tuple, dict[str, float]] = {}

    def split(weighted: list[tuple[float, float, dict[str, float]]]) -> dict[str, float]:
        """Combine callers' shares by weight (cumulative time, or call
        counts when the table recorded no time)."""
        column = 0 if sum(w[0] for w in weighted) > 0.0 else 1
        total = sum(w[column] for w in weighted)
        out: dict[str, float] = defaultdict(float)
        for entry in weighted:
            for name, fraction in entry[2].items():
                out[name] += fraction * entry[column] / total
        return dict(out)

    def shares(func: tuple, stack: frozenset) -> dict[str, float]:
        """How a second spent below ``func`` splits over layers; empty
        when ``func`` is reachable only through ``stack``."""
        layer = layer_of(func[0], bench_dir)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        entry = stats.get(func)
        callers = entry[4] if entry is not None else {}
        if not callers:
            return {"other": 1.0}
        if len(stack) >= _MAX_CALLER_DEPTH:
            return {}
        inner = stack | {func}
        weighted = []
        for caller, value in callers.items():
            if caller in inner:
                continue
            resolved = shares(caller, inner)
            if resolved:
                weighted.append((float(value[3]), float(value[0]), resolved))
        if not weighted:
            return {}
        out = split(weighted)
        if not any(caller in inner for caller in callers):
            memo[func] = out
        return out

    totals = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        layer = layer_of(func[0], bench_dir)
        if layer is not None:
            totals[layer] += tottime
            continue
        weighted = []
        for caller, value in callers.items():
            resolved = shares(caller, frozenset({func})) if caller != func else {}
            if resolved:
                weighted.append((float(value[2]), float(value[0]), resolved))
        if not weighted:
            totals["other"] += tottime
            continue
        for name, fraction in split(weighted).items():
            totals[name] += tottime * fraction
    return totals


def call_count(stats: Mapping[tuple, tuple], suffix: str, name: str) -> int:
    """Calls of the function ``name`` defined in a file ending ``suffix``."""
    return sum(
        entry[1]
        for (filename, _line, func), entry in stats.items()
        if func == name and filename.replace("\\", "/").endswith(suffix)
    )
