"""Columnar static membership — a group's frozen tables as flat pid columns.

§VII's tables "are initialized at the beginning of the simulation and do
not change", so no static system keeps them as objects. This module stores
a whole group's membership in flat pid columns, each one Python list:

* **topic rows** — member ``i``'s topic table occupies the fixed-stride
  slice ``[i·stride, (i+1)·stride)`` of one contiguous pid list, where
  ``stride = min(capacity, S-1)``;
* **super blocks** — one per direct supertopic (:class:`SuperBlock`):
  likewise for the ``sTable`` draws against the nearest populated group
  at or above that supertopic, stride ``min(z, S_super)``. A tree gives a
  group none or one; a §VIII DAG one per parent ("adding a supertopic
  table for each supertopic").

Every static table in the tree is built here. The static daMulticast
build (:meth:`~repro.core.system.DaMulticastSystem.
finalize_static_membership`) passes each group's pid block, a ``range``,
to :func:`draw_static_tables`, over its topic hierarchy. The
four baselines draw their in-group tables with :func:`build_group_tables`
and their outsider tables (a table over a group the drawer is not in) with
:class:`ColumnarSuperBuilder`, read back as topic rows through
:meth:`ColumnarSuperBuilder.tables`. A builder takes the group's pid
sequence and a row holds pids, so nothing here assumes a block.

Draw order
----------

Each builder is draw-for-draw identical to a historical per-member body
kept at the end of this module — a topic row to
:func:`_reference_draw_topic_table`, a super or outsider row to
:func:`_reference_draw_super_table` — from the same RNG stream, with the
same RNG end-state. The argument:

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
  ``getrandbits`` stream the stdlib consumes: in its positions form for a
  topic row, over the drawn group's pid list for a super or outsider row,
  and over a row for :meth:`ColumnarGroupTables.sample_row`.

A whole build draws the groups in a fixed order from one stream, each
member's topic row then one super row per block, in
:meth:`~repro.topics.hierarchy.TopicHierarchy.parents_of` order
(:func:`build_group_tables`). The
S=500 construction-digest golden (one digest, :func:`rows_digest`, for
both hosts) and tests/test_membership_equivalence.py pin all of it.

Reading a row in place
----------------------

Fig. 7 reads a member's rows straight off the columns: the group's block
actor hands its columns and the member's index to the one Fig. 7 kernel
(:func:`~repro.core.group_actor.forward`), which makes the link election
and ``p_a`` draws over the member's window of each super block and samples
its gossip off its window of the topic column — the draws it makes for a
dynamic process over a view holding the same row (a view's pid list is its
row, in insertion order). A baseline samples its forward with
:meth:`ColumnarGroupTables.sample_row`.

A row's slots reference the pid ints of the list the builder drew them
from, so a column costs one pointer, 8 bytes, per slot (what
:meth:`ColumnarGroupTables.nbytes` counts), and a sampled target is a
reference, not a freshly made int. Nothing writes to a column after the
build.
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.errors import ConfigError
from repro.membership.sampling import sample_from
from repro.topics.topic import Topic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.params import TopicParams
    from repro.membership.view import PartialView, ProcessDescriptor
    from repro.topics.hierarchy import TopicHierarchy


class SuperBlock(NamedTuple):
    """One supertopic table per member, for one direct supertopic: the
    group it points at and the members' rows, ``stride`` pids each."""

    target: Topic
    stride: int
    rows: list[int]


class ColumnarGroupTables:
    """One group's frozen membership tables in flat pid columns.

    Built by the builders below (:func:`build_group_tables` owns a
    group's draw order); afterwards nothing writes to them — exactly the
    paper's §VII setting ("these tables are initialized at the beginning
    of the simulation and do not change"). ``members`` is the group's pid
    sequence: member ``i`` — pid ``members[i]`` — owns row ``i`` of the
    topic column and of every super block. ``supers`` holds one
    :class:`SuperBlock` per direct supertopic that has a populated topic
    above it: none or one on a tree, one per parent on a §VIII DAG.
    """

    __slots__ = ("topic", "members", "size", "capacity", "stride", "rows", "supers")

    def __init__(
        self,
        topic: Topic,
        members: Sequence[int],
        capacity: int,
        stride: int,
        rows: list[int],
        supers: tuple[SuperBlock, ...] = (),
    ):
        self.topic = topic
        self.members = members
        self.size = len(members)
        self.capacity = capacity
        self.stride = stride
        self.rows = rows
        self.supers = supers

    # ------------------------------------------------------------------
    # Row access (pids, in draw order — the digest/golden order)
    # ------------------------------------------------------------------
    def row_pids(self, index: int) -> list[int]:
        """Member ``index``'s topic-table pids, in insertion order."""
        start = index * self.stride
        return self.rows[start : start + self.stride]

    def super_rows_of(self, index: int) -> list[tuple[Topic, list[int]]]:
        """Member ``index``'s supertopic tables, one ``(target, pids)`` per
        super block, pids in insertion order."""
        return [
            (target, rows[index * stride : (index + 1) * stride])
            for target, stride, rows in self.supers
        ]

    # ------------------------------------------------------------------
    # A baseline's forward, off the columns
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
        the pids of ``PartialView.sample(k, rng, (pid,))`` over a view
        holding the row.
        """
        stride = self.stride
        start = index * stride
        if k >= stride:
            return self.rows[start : start + stride]
        return sample_from(self.rows, start, stride, k, rng)

    def nbytes(self) -> int:
        """Bytes held by the pid columns (the group's membership state):
        one 8-byte reference per slot."""
        return 8 * (len(self.rows) + sum(len(rows) for _, _, rows in self.supers))


class ColumnarTableBuilder:
    """Per-group topic-row builder: member ``i``'s row is ``capacity``
    other members, draw-identical to
    :func:`_reference_draw_topic_table`.

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
        #: the pids as a list, the sequence CPython indexes fastest (a
        #: ``range`` computes each item); every row slot references one
        #: of its ints
        self._pids = list(members)
        if len(set(self._pids)) != len(self._pids):
            raise ConfigError("a membership group lists a pid more than once")
        self.capacity = capacity
        n = len(members) - 1  # the exclusion list length: everyone but the member
        self.stride = min(capacity, n)
        self._n = n
        self._take_all = capacity >= n
        self.rows: list[int] = []

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
        # Exclusion arithmetic: position r in the member-i-removed list is
        # group index r below i, r+1 at or above it.
        rows.extend(
            [
                pids[r if r < index else r + 1]
                for r in sample_from(None, 0, self._n, self.capacity, rng)
            ]
        )


class ColumnarSuperBuilder:
    """Row builder over a group the drawers are not in: each row is a
    uniform ``z``-draw of ``super_members``, no exclusion, draw-identical
    to :func:`_reference_draw_super_table`.

    Serves ``sTable`` rows and the baselines' outsider tables."""

    def __init__(self, super_members: Sequence[int], z: int):
        if not super_members:
            raise ConfigError("supergroup size must be >= 1, got 0")
        self._pids = list(super_members)
        self.z = z
        self.stride = min(z, len(super_members))
        self._take_all = z >= len(super_members)
        self.rows: list[int] = []

    def draw_row(self, rng: random.Random) -> None:
        """Append one member's super row (one ``z``-draw)."""
        pids = self._pids
        if self._take_all:
            self.rows.extend(pids)
            return
        # sample_from maps the positions it draws through ``pids``
        self.rows.extend(sample_from(pids, 0, len(pids), self.z, rng))

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
    supers: Sequence[tuple[Topic, Sequence[int]]] = (),
    z: int = 0,
) -> ColumnarGroupTables:
    """Draw one group's full membership columns.

    ``supers`` lists, per direct supertopic, the populated group its table
    points at and that group's pids. Member ``i``'s topic-table draw, then
    one ``z``-draw per entry of ``supers``, in order, all from the single
    shared ``rng`` — the per-member interleaving every static build has
    always had.
    """
    table_builder = ColumnarTableBuilder(members, capacity)
    draw_row = table_builder.draw_row
    super_builders = [
        (target, ColumnarSuperBuilder(pids, z)) for target, pids in supers
    ]
    draw_super_rows = [builder.draw_row for _, builder in super_builders]
    for index in range(len(members)):
        draw_row(index, rng)
        for draw_super_row in draw_super_rows:
            draw_super_row(rng)
    return ColumnarGroupTables(
        topic,
        members,
        capacity,
        table_builder.stride,
        table_builder.rows,
        tuple(
            SuperBlock(target, builder.stride, builder.rows)
            for target, builder in super_builders
        ),
    )


def draw_static_tables(
    groups: Mapping[Topic, Sequence[int]],
    params_for: Callable[[Topic], TopicParams],
    rng: random.Random,
    hierarchy: TopicHierarchy,
) -> dict[Topic, ColumnarGroupTables]:
    """§VII's build: every group's columns, drawn from global knowledge.

    Groups are drawn in ``groups`` order from the one ``rng``; each member's
    topic table is a uniform sample of ``(b+1)·log(S)`` other members and
    each of its supertopic tables a uniform sample of ``z`` members of the
    nearest populated group at or above one direct supertopic
    (§III-B; :meth:`~repro.topics.hierarchy.TopicHierarchy.
    nearest_populated_supers`, one table per parent on a §VIII DAG);
    ``params_for(topic)`` gives a group's ``b`` (through
    ``table_capacity``) and ``z``. What both hosts'
    ``finalize_static_membership`` draw.
    """
    drawn: dict[Topic, ColumnarGroupTables] = {}
    for topic, members in groups.items():
        params = params_for(topic)
        drawn[topic] = build_group_tables(
            topic,
            members,
            params.table_capacity(len(members)),
            rng,
            supers=[
                (target, groups[target])
                for target in hierarchy.nearest_populated_supers(topic, groups)
            ],
            z=params.z,
        )
    return drawn


def rows_digest(rows: Iterable[tuple[ColumnarGroupTables, int]]) -> str:
    """SHA-256 over members' tables, given as ``(tables, row)`` per member
    in pid order: ``T`` and the topic-row pids, then per super block ``S``,
    its row's pids and its target (a member with none digests as one empty
    block aimed at ``None``) — per member, byte for byte the S=500
    golden's layout (tests/test_golden_static.py). Both hosts'
    ``construction_digest``."""
    digest = hashlib.sha256()
    update = digest.update
    for tables, row in rows:
        update(b"T")
        update(",".join(map(str, tables.row_pids(row))).encode())
        for target, pids in tables.super_rows_of(row) or ((None, ()),):
            update(b"S")
            update(",".join(map(str, pids)).encode())
            update(str(target).encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The historical per-member draws: the oracles the builders are held to
# (tests/test_membership_equivalence.py, benchmarks/bench_membership_build.py).
# Only they build views, so they import the view module themselves.
# ----------------------------------------------------------------------
def _reference_draw_topic_table(
    member: ProcessDescriptor,
    group: Sequence[ProcessDescriptor],
    capacity: int,
    rng: random.Random,
) -> PartialView:
    """The historical topic-table draw: ``capacity`` members of ``group``
    other than ``member``, rebuilding the O(S) exclusion list per call.

    Kept verbatim as the equivalence oracle: a columnar topic row (or,
    for a ``member`` outside ``group``, an outsider row) must hold the same
    pids in the same order *and* leave the same RNG end-state.
    """
    from repro.membership.view import PartialView

    view = PartialView(capacity)
    others = [d for d in group if d.pid != member.pid]
    chosen = others if capacity >= len(others) else rng.sample(others, capacity)
    for descriptor in chosen:
        view.add(descriptor, rng)
    return view


def _reference_draw_super_table(
    super_group: Sequence[ProcessDescriptor],
    z: int,
    rng: random.Random,
) -> PartialView:
    """The historical ``sTable`` draw: ``z`` members of ``super_group``,
    copying the population per call (the oracle of a super row)."""
    from repro.membership.view import PartialView

    view = PartialView(max(1, z))
    chosen = (
        list(super_group) if z >= len(super_group) else rng.sample(list(super_group), z)
    )
    for descriptor in chosen:
        view.add(descriptor, rng)
    return view
