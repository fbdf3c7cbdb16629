"""Columnar static membership — contiguous pid arrays for huge groups.

The object backend materialises one :class:`~repro.membership.view.
PartialView` (a dict of :class:`~repro.membership.view.ProcessDescriptor`)
per process — fine at S=10³, a memory wall at S=10⁵–10⁶. This module
stores a whole group's membership in two flat ``array('l')`` columns:

* **topic rows** — member ``i``'s topic table occupies the fixed-stride
  slice ``[i·stride, (i+1)·stride)`` of one contiguous pid array, where
  ``stride = min(capacity, S-1)``;
* **super rows** — likewise for the ``sTable`` draws against the nearest
  populated supergroup, stride ``min(z, S_super)``.

Bit-identity with the object backend
------------------------------------

The builders replay :class:`~repro.membership.static.GroupTableBuilder` /
:class:`~repro.membership.static.GroupSampler` draw for draw, resting on
the same positional-sampling property (``random.Random.sample`` consumes
the RNG as a function of ``(len(population), k)`` only — see
membership/static.py). Positions come from the shared
:func:`~repro.membership.sampling.sample_from` in its positions form (which
draws identically to sampling the descriptor list itself) and are mapped to
pids with the exclusion arithmetic ``j = r if r < i else r+1`` instead of a
working exclusion list. The construction therefore produces the *same pid
sequences in the same order from the same RNG stream* as the object
backend — pinned by the S=500 construction-digest golden and the
hypothesis suite in tests/test_membership_columnar_equivalence.py.

Group pids must be contiguous (``base .. base+size``): the columnar
backend allocates each group one pid block, so descriptors reduce to bare
integers and sampling to index arithmetic.
"""

from __future__ import annotations

import random
from array import array
from typing import Iterator

from repro.errors import ConfigError
from repro.membership.sampling import sample_from
from repro.topics.topic import Topic


class ColumnarGroupTables:
    """One group's frozen membership tables in flat pid columns.

    Built by :func:`build_group_tables` (which owns the draw order);
    afterwards the tables are immutable — exactly the paper's §VII setting
    ("these tables are initialized at the beginning of the simulation and
    do not change").
    """

    __slots__ = (
        "topic", "base", "size", "capacity", "stride", "rows",
        "super_topic", "super_stride", "super_rows",
    )

    def __init__(
        self,
        topic: Topic,
        base: int,
        size: int,
        capacity: int,
        stride: int,
        rows: array,
        super_topic: Topic | None,
        super_stride: int,
        super_rows: array,
    ):
        self.topic = topic
        self.base = base
        self.size = size
        self.capacity = capacity
        self.stride = stride
        self.rows = rows
        self.super_topic = super_topic
        self.super_stride = super_stride
        self.super_rows = super_rows

    # ------------------------------------------------------------------
    # Row access (pids, in draw order — the digest/golden order)
    # ------------------------------------------------------------------
    def row_pids(self, index: int) -> list[int]:
        """Member ``index``'s topic-table pids, in insertion order."""
        start = index * self.stride
        return self.rows[start : start + self.stride].tolist()

    def super_row_pids(self, index: int) -> list[int]:
        """Member ``index``'s supertopic-table pids, in insertion order."""
        start = index * self.super_stride
        return self.super_rows[start : start + self.super_stride].tolist()

    def sample_row(
        self, index: int, k: int, rng: random.Random
    ) -> list[int]:
        """Up to ``k`` distinct topic-table pids of member ``index``,
        uniformly, straight off the column (no descriptor objects, no
        position list).

        Draw-for-draw identical to mapping ``rng.sample(range(stride), k)``
        through the row — the shared sampler runs on the row's slice of the
        column itself — so the RNG end-state is the one the stdlib call
        would leave. The member's own pid is never in its row (exclusion
        is built into construction), so no per-call filtering is needed:
        the columnar equivalent of
        ``PartialView.sample_pids(k, rng, self.pid)``.
        """
        stride = self.stride
        start = index * stride
        if k >= stride:
            return self.rows[start : start + stride].tolist()
        return sample_from(self.rows, start, stride, k, rng)

    def nbytes(self) -> int:
        """Bytes held by the pid columns (the backend's membership state)."""
        return (
            self.rows.itemsize * len(self.rows)
            + self.super_rows.itemsize * len(self.super_rows)
        )

    def pids(self) -> Iterator[int]:
        """The group's member pids (the contiguous block)."""
        return iter(range(self.base, self.base + self.size))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"ColumnarGroupTables({self.topic.name}, S={self.size}, "
            f"stride={self.stride}, super_stride={self.super_stride})"
        )


class ColumnarTableBuilder:
    """Per-group topic-row builder, draw-identical to
    :meth:`GroupTableBuilder.table_at` over the group's descriptor list.

    ``draw_row`` must be called for members in index order (the build
    interleaves topic and super draws per member, so the caller owns the
    loop)."""

    def __init__(self, base: int, size: int, capacity: int):
        if size < 1:
            raise ConfigError(f"group size must be >= 1, got {size}")
        if capacity < 1:
            raise ConfigError(f"table capacity must be >= 1, got {capacity}")
        self.base = base
        self.size = size
        self.capacity = capacity
        n = size - 1  # the exclusion list length: everyone but the member
        self.stride = min(capacity, n)
        self._n = n
        self._take_all = capacity >= n
        self.rows = array("l")

    def draw_row(self, index: int, rng: random.Random) -> None:
        """Append member ``index``'s topic row (consuming exactly the RNG
        draws the object backend's ``table_at`` would)."""
        n = self._n
        base = self.base
        append = self.rows.append
        if self._take_all:
            # capacity >= S-1: the table is everyone else, no draws.
            for j in range(n + 1):
                if j != index:
                    append(base + j)
            return
        positions = sample_from(None, 0, n, self.capacity, rng)
        # Exclusion arithmetic: position r in the member-i-removed list is
        # group index r below i, r+1 at or above it.
        for r in positions:
            append(base + (r if r < index else r + 1))


class ColumnarSuperBuilder:
    """Per-group ``sTable``-row builder, draw-identical to
    :meth:`GroupSampler.sample` over the supergroup's descriptor list."""

    def __init__(self, super_base: int, super_size: int, z: int):
        if super_size < 1:
            raise ConfigError(
                f"supergroup size must be >= 1, got {super_size}"
            )
        self.super_base = super_base
        self.super_size = super_size
        self.z = z
        self.stride = min(z, super_size)
        self._take_all = z >= super_size
        self.rows = array("l")

    def draw_row(self, rng: random.Random) -> None:
        """Append one member's super row (one ``z``-draw)."""
        n = self.super_size
        base = self.super_base
        append = self.rows.append
        positions = (
            range(n) if self._take_all else sample_from(None, 0, n, self.z, rng)
        )
        for r in positions:
            append(base + r)


def build_group_tables(
    topic: Topic,
    base: int,
    size: int,
    capacity: int,
    rng: random.Random,
    *,
    super_topic: Topic | None = None,
    super_base: int = 0,
    super_size: int = 0,
    z: int = 0,
) -> ColumnarGroupTables:
    """Draw one group's full membership columns.

    Replays the object backend's per-member interleaving exactly: member
    ``i``'s topic-table draw, then its super-table draw (when a populated
    supergroup exists), both from the single shared ``rng`` — the same
    consumption order as ``DaMulticastSystem.finalize_static_membership``.
    """
    table_builder = ColumnarTableBuilder(base, size, capacity)
    super_builder = (
        ColumnarSuperBuilder(super_base, super_size, z)
        if super_topic is not None and super_size > 0
        else None
    )
    for index in range(size):
        table_builder.draw_row(index, rng)
        if super_builder is not None:
            super_builder.draw_row(rng)
    if super_builder is not None:
        super_stride, super_rows = super_builder.stride, super_builder.rows
    else:
        super_topic, super_stride, super_rows = None, 0, array("l")
    return ColumnarGroupTables(
        topic,
        base,
        size,
        capacity,
        table_builder.stride,
        table_builder.rows,
        super_topic,
        super_stride,
        super_rows,
    )
