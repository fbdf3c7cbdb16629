"""Columnar static membership — a group's frozen tables as two pid columns.

§VII's tables "are initialized at the beginning of the simulation and do
not change", so neither host keeps them as objects. This module stores a
whole group's membership in two flat ``array('l')`` columns:

* **topic rows** — member ``i``'s topic table occupies the fixed-stride
  slice ``[i·stride, (i+1)·stride)`` of one contiguous pid array, where
  ``stride = min(capacity, S-1)``;
* **super rows** — likewise for the ``sTable`` draws against the nearest
  populated supergroup, stride ``min(z, S_super)``.

Every static table in the tree is built here. The columnar host
(:mod:`repro.core.columnar`) passes each group's pid block, a ``range``;
the object host (:class:`~repro.core.system.DaMulticastSystem`) passes each
group's pids in join order, which need not be contiguous — ``add_process``
calls for several topics interleave. Both go through
:func:`draw_static_tables`. :class:`~repro.core.multiparent.
MultiParentSystem` draws its topic rows with :class:`ColumnarTableBuilder`
and its per-parent ``z``-samples with :class:`ColumnarSuperBuilder`. The
four baselines draw their in-group tables with :func:`build_group_tables`
and their outsider tables (a table over a group the drawer is not in) with
:class:`ColumnarSuperBuilder`, read back as topic rows through
:meth:`ColumnarSuperBuilder.tables`. A builder takes the group's pid
sequence and a row holds pids, so nothing here assumes a block.

Draw order
----------

Each builder is draw-for-draw identical to a historical per-member body
kept in :mod:`repro.membership.static` — a topic row to
:func:`~repro.membership.static._reference_draw_topic_table`, a super or
outsider row to :func:`~repro.membership.static._reference_draw_super_table`
— from the same RNG stream, with the same RNG end-state. The argument:

* ``random.Random.sample(population, k)`` is purely positional: its RNG
  consumption and the *positions* it selects depend only on
  ``(len(population), k)``, never on the elements. So sampling positions
  and mapping them through the pid sequence reproduces a draw over a list
  of descriptors carrying those pids.
* the oracle's exclusion list for member ``i`` (the group with member
  ``i`` removed, order preserved) holds group index ``r`` at position
  ``r`` below ``i`` and ``r+1`` at or above it, so a topic row maps each
  drawn position with ``j = r if r < i else r+1`` instead of building
  that list. This holds only when no pid appears twice (pid exclusion
  would drop every copy), so :class:`ColumnarTableBuilder` refuses a
  group that repeats one.
* the draw itself is :func:`~repro.membership.sampling.sample_from` — both
  of ``random.sample``'s branches (pool for small populations, selection
  set with rejection for large ones) written out once over the
  ``getrandbits`` stream the stdlib consumes, in its positions form for
  the builders and over a row for :meth:`ColumnarGroupTables.sample_row`.

A whole build draws the groups in a fixed order from one stream, each
member's topic row then its super row (:func:`build_group_tables`). The
S=500 construction-digest golden (one digest, :func:`rows_digest`, for
both hosts) and tests/test_membership_equivalence.py pin all of it.

Reading a row in place
----------------------

Fig. 7's two selections read a member's row straight off the columns
(:meth:`ColumnarGroupTables.sample_row`, :meth:`ColumnarGroupTables.
link_targets`), draw-identical to :meth:`PartialView.sample_pids
<repro.membership.view.PartialView.sample_pids>` and
:func:`~repro.core.dissemination.elect_links` over tables holding the same
row: a view's pid list is its row, in insertion order.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.errors import ConfigError
from repro.membership.sampling import sample_from
from repro.membership.static import nearest_populated_super
from repro.topics.topic import Topic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.params import TopicParams


class ColumnarGroupTables:
    """One group's frozen membership tables in flat pid columns.

    Built by the builders below (:func:`build_group_tables` owns a
    group's draw order); afterwards the tables are immutable — exactly the
    paper's §VII setting ("these tables are initialized at the beginning
    of the simulation and do not change"). ``members`` is the group's pid
    sequence: member ``i`` — pid ``members[i]`` — owns row ``i`` of both
    columns.
    """

    __slots__ = (
        "topic", "members", "size", "capacity", "stride", "rows",
        "super_topic", "super_stride", "super_rows",
    )

    def __init__(
        self,
        topic: Topic,
        members: Sequence[int],
        capacity: int,
        stride: int,
        rows: array,
        super_topic: Topic | None = None,
        super_stride: int = 0,
        super_rows: array | None = None,
    ):
        self.topic = topic
        self.members = members
        self.size = len(members)
        self.capacity = capacity
        self.stride = stride
        self.rows = rows
        self.super_topic = super_topic
        self.super_stride = super_stride
        self.super_rows = array("l") if super_rows is None else super_rows

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

    # ------------------------------------------------------------------
    # Fig. 7's two selections, off the columns
    # ------------------------------------------------------------------
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

    def link_targets(
        self,
        index: int,
        p_sel: float,
        p_a: float,
        rng: random.Random,
        force_link: bool,
    ) -> tuple[tuple[Topic, list[int]], ...]:
        """Fig. 7 lines 3-7 over member ``index``'s super row: nothing
        unless the member elects itself a link (probability ``p_sel``, or
        ``force_link``), then each entry kept with probability ``p_a``.

        Draw-for-draw identical to :func:`~repro.core.dissemination.
        elect_links` over a supertopic table holding the row: an empty row
        draws nothing; otherwise the election draw (skipped when forced),
        then one ``p_a`` draw per entry, in row order.
        """
        stride = self.super_stride
        if not stride:
            return ()
        random_draw = rng.random
        if not (force_link or random_draw() < p_sel):
            return ()
        start = index * stride
        links = [
            pid
            for pid in self.super_rows[start : start + stride]
            if random_draw() < p_a
        ]
        return ((self.super_topic, links),) if links else ()

    def nbytes(self) -> int:
        """Bytes held by the pid columns (the group's membership state)."""
        return (
            self.rows.itemsize * len(self.rows)
            + self.super_rows.itemsize * len(self.super_rows)
        )

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"ColumnarGroupTables({self.topic.name}, S={self.size}, "
            f"stride={self.stride}, super_stride={self.super_stride})"
        )


class ColumnarTableBuilder:
    """Per-group topic-row builder: member ``i``'s row is ``capacity``
    other members, draw-identical to
    :func:`~repro.membership.static._reference_draw_topic_table`.

    ``draw_row`` must be called for members in index order (a build
    interleaves each member's topic and supertopic draws, so the caller
    owns the loop). A group that lists a pid twice is a
    :class:`~repro.errors.ConfigError`: no group of registered processes
    repeats one, and positional exclusion would keep the second copy."""

    def __init__(self, members: Sequence[int], capacity: int):
        if not members:
            raise ConfigError("group size must be >= 1, got 0")
        if capacity < 1:
            raise ConfigError(f"table capacity must be >= 1, got {capacity}")
        self.members = members
        #: the pids as a list, the sequence CPython indexes fastest (a
        #: ``range`` computes each item, an array boxes it)
        self._pids = list(members)
        if len(set(self._pids)) != len(self._pids):
            raise ConfigError("a membership group lists a pid more than once")
        self.capacity = capacity
        n = len(members) - 1  # the exclusion list length: everyone but the member
        self.stride = min(capacity, n)
        self._n = n
        self._take_all = capacity >= n
        self.rows = array("l")

    def draw_row(self, index: int, rng: random.Random) -> None:
        """Append member ``index``'s topic row (consuming exactly the RNG
        draws the oracle would)."""
        pids = self._pids
        rows = self.rows
        if self._take_all:
            # capacity >= S-1: the table is everyone else, no draws.
            rows.extend(pids[:index])
            rows.extend(pids[index + 1 :])
            return
        append = rows.append
        # Exclusion arithmetic: position r in the member-i-removed list is
        # group index r below i, r+1 at or above it.
        for r in sample_from(None, 0, self._n, self.capacity, rng):
            append(pids[r if r < index else r + 1])

    def tables(self, topic: Topic) -> ColumnarGroupTables:
        """The group's tables: the rows drawn so far, no super rows."""
        return ColumnarGroupTables(
            topic, self.members, self.capacity, self.stride, self.rows
        )


class ColumnarSuperBuilder:
    """Row builder over a group the drawers are not in: each row is a
    uniform ``z``-draw of ``super_members``, no exclusion, draw-identical
    to :func:`~repro.membership.static._reference_draw_super_table`.

    Serves ``sTable`` rows and the baselines' outsider tables."""

    def __init__(self, super_members: Sequence[int], z: int):
        if not super_members:
            raise ConfigError("supergroup size must be >= 1, got 0")
        self._pids = list(super_members)
        self.z = z
        self.stride = min(z, len(super_members))
        self._take_all = z >= len(super_members)
        self.rows = array("l")

    def draw_row(self, rng: random.Random) -> None:
        """Append one member's super row (one ``z``-draw)."""
        pids = self._pids
        if self._take_all:
            self.rows.extend(pids)
            return
        append = self.rows.append
        for r in sample_from(None, 0, len(pids), self.z, rng):
            append(pids[r])

    def tables(self, topic: Topic, drawers: Sequence[int]) -> ColumnarGroupTables:
        """The rows drawn so far as topic rows of ``drawers`` (row ``i`` is
        ``drawers[i]``'s), read with :meth:`ColumnarGroupTables.sample_row`
        — an outsider table holds none of its drawers, so there is nothing
        to exclude."""
        return ColumnarGroupTables(topic, drawers, self.z, self.stride, self.rows)


def build_group_tables(
    topic: Topic,
    members: Sequence[int],
    capacity: int,
    rng: random.Random,
    *,
    super_topic: Topic | None = None,
    super_members: Sequence[int] = (),
    z: int = 0,
) -> ColumnarGroupTables:
    """Draw one group's full membership columns.

    Member ``i``'s topic-table draw, then its super-table draw (when a
    populated supergroup exists), both from the single shared ``rng`` —
    the per-member interleaving every static build has always had.
    """
    table_builder = ColumnarTableBuilder(members, capacity)
    if super_topic is None or not super_members:
        for index in range(len(members)):
            table_builder.draw_row(index, rng)
        return table_builder.tables(topic)
    super_builder = ColumnarSuperBuilder(super_members, z)
    for index in range(len(members)):
        table_builder.draw_row(index, rng)
        super_builder.draw_row(rng)
    return ColumnarGroupTables(
        topic,
        members,
        capacity,
        table_builder.stride,
        table_builder.rows,
        super_topic,
        super_builder.stride,
        super_builder.rows,
    )


def draw_static_tables(
    groups: Mapping[Topic, Sequence[int]],
    params_for: Callable[[Topic], TopicParams],
    rng: random.Random,
) -> dict[Topic, ColumnarGroupTables]:
    """§VII's build: every group's columns, drawn from global knowledge.

    Groups are drawn in ``groups`` order from the one ``rng``; each member's
    topic table is a uniform sample of ``(b+1)·log(S)`` other members and
    its supertopic table a uniform sample of ``z`` members of the nearest
    populated supergroup (§III-B); ``params_for(topic)`` gives a group's
    ``b`` (through ``table_capacity``) and ``z``. What both hosts'
    ``finalize_static_membership`` draw.
    """
    drawn: dict[Topic, ColumnarGroupTables] = {}
    for topic, members in groups.items():
        params = params_for(topic)
        super_topic = nearest_populated_super(topic, groups)
        drawn[topic] = build_group_tables(
            topic,
            members,
            params.table_capacity(len(members)),
            rng,
            super_topic=super_topic,
            super_members=groups[super_topic] if super_topic is not None else (),
            z=params.z,
        )
    return drawn


def rows_digest(rows: Iterable[tuple[ColumnarGroupTables, int]]) -> str:
    """SHA-256 over members' tables, given as ``(tables, row)`` per member
    in pid order: ``T`` and the topic-row pids, ``S`` and the super-row
    pids, then the super target — per member, byte for byte the S=500
    golden's layout (tests/test_golden_static.py). Both hosts'
    ``construction_digest``."""
    digest = hashlib.sha256()
    update = digest.update
    for tables, row in rows:
        update(b"T")
        update(",".join(map(str, tables.row_pids(row))).encode())
        update(b"S")
        update(",".join(map(str, tables.super_row_pids(row))).encode())
        update(str(tables.super_topic).encode())
    return digest.hexdigest()
