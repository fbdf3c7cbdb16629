"""The §VII simulator's protocol actor: one block actor per static group.

The paper's static setting draws every table once at t=0 and never
changes it. A group is one contiguous pid block run by one
:class:`ColumnarGroupActor`, registered on the network as a block actor:

* its tables are the group's pid columns
  (:class:`~repro.membership.columnar.ColumnarGroupTables`), and a member
  is a row of them;
* Fig. 5's first-reception dedup is one ``bytearray(S)`` per in-flight
  event instead of a set per process;
* Fig. 7 is one kernel, :func:`forward`, called once per first receipt
  over the member's windows of the columns, with ``fanout(S)``,
  ``p_sel(S)``, ``p_a`` and both scopes resolved once per group. A
  dynamic process (:mod:`repro.core.process`) calls the same kernel over
  its descriptor tables, so the figure has one body;
* each member draws its selections from its row of a stream list the
  system fills: empty rows are seeded with the member's ``process/{pid}``
  stream on its first action (a member that never acts never pays for a
  Mersenne state), or every row holds one ``group/<topic>`` stream;
* the actor holds its network weakly, and a member record (below) its
  system's actor registry, so nothing in a static build points back at
  what holds it: a dropped build is freed by reference count, whether or
  not ``close()`` was called.

What the system hands out for a static member is a
:class:`~repro.runtime.StaticMember` record: pid, topic, and what its
tables cost, read off its group's actor. Nothing here imports the dynamic
protocol.
"""

from __future__ import annotations

import random
import weakref
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.core.events import DeliveryCallback, Event, EventId
from repro.core.params import TopicParams
from repro.errors import ConfigError, ProtocolError
from repro.membership.columnar import ColumnarGroupTables
from repro.membership.sampling import sample_from
from repro.net.message import EventMessage, Message, Scope
from repro.net.network import Network
from repro.sim.clock import Clock
from repro.sim.rng import RngRegistry
from repro.topics.hierarchy import TopicHierarchy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import StaticMember


def forward(
    multicast: Callable[[int, list[int], Message], None],
    pid: int,
    event: Event,
    next_hops: int,
    rng: random.Random,
    force_link: bool,
    index: int,
    supers: Iterable[tuple[Scope, int, list[int]]],
    p_sel: float,
    p_a: float,
    intra_scope: Scope,
    row: list[int],
    row_stride: int,
    fanout: int,
) -> None:
    """Fig. 7's DISSEMINATE for member ``index`` (pid ``pid``) of a group,
    drawing from ``rng``: the one body both modes run.

    Per super block ``(scope, stride, rows)`` with a non-empty row, the
    link election (probability ``p_sel``, skipped when ``force_link``) and
    then one ``p_a`` draw per entry of the member's row
    ``rows[index*stride : (index+1)*stride]``, in row order (lines 3-7);
    then the gossip over the member's topic row, the window
    ``row[index*row_stride : (index+1)*row_stride]``: all of it when
    ``fanout`` covers it, else ``fanout`` distinct pids drawn by
    :func:`~repro.membership.sampling.sample_from` (lines 8-14; a member's
    own pid is never in its row). Each non-empty selection goes out as one
    ``multicast(pid, targets, message)`` of one message carrying
    ``next_hops``.

    A static group passes its pid columns; a dynamic process passes
    ``index`` 0, its supertopic table as one block and its view's pid
    list as the whole row.
    """
    random_draw = rng.random
    for scope, stride, rows in supers:
        if stride and (force_link or random_draw() < p_sel):
            start = index * stride
            kept = [
                target for target in rows[start : start + stride] if random_draw() < p_a
            ]
            if kept:
                multicast(pid, kept, EventMessage(pid, event, scope, next_hops))
    start = index * row_stride
    if fanout >= row_stride:
        targets = row[start : start + row_stride]
    else:
        targets = sample_from(row, start, row_stride, fanout, rng)
    if targets:
        multicast(pid, targets, EventMessage(pid, event, intra_scope, next_hops))


class ColumnarGroupActor:
    """One block actor running Fig. 5's RECEIVE and Fig. 7's DISSEMINATE
    for a whole group, over its pid columns.

    ``streams[i]`` is member ``i``'s selection stream; a row left None is
    seeded with the member's ``process/{pid}`` stream on its first action.
    ``members[i]`` is what ``callback(member, event)`` is handed on the
    member's first delivery of an event.
    """

    __slots__ = (
        "topic", "tables", "hierarchy", "base", "engine", "tracker", "streams",
        "members", "_rngs", "_callback", "_seen", "_fig7", "_network",
    )

    def __init__(
        self,
        tables: ColumnarGroupTables,
        params: TopicParams,
        hierarchy: TopicHierarchy,
        *,
        engine: Clock,
        network: Network,
        rngs: RngRegistry,
        tracker,
        streams: list[random.Random | None],
        members: Sequence[StaticMember],
        callback: DeliveryCallback | None = None,
    ):
        self.topic = topic = tables.topic
        self.tables = tables
        #: the system's topic graph, whose inclusion decides what the
        #: group may deliver
        self.hierarchy = hierarchy
        #: the group is one pid block: member index = pid - base
        self.base = tables.members[0]
        self.engine = engine
        self.tracker = tracker
        self.streams = streams
        self.members = members
        self._rngs = rngs
        self._callback = callback
        #: event_id -> seen bitmask (1 byte per member, per in-flight event)
        self._seen: dict[EventId, bytearray] = {}
        #: what Fig. 7 reads that depends on the (static) group only,
        #: resolved once, as the kernel's trailing arguments: per super
        #: block its scope and rows, ``p_sel(S)``, ``p_a``, the intra
        #: scope, the topic column and ``fanout(S)``
        self._fig7 = (
            tuple(
                (Scope("inter", topic, target), stride, rows)
                for target, stride, rows in tables.supers
            ),
            params.p_sel(tables.size),
            params.p_a,
            Scope("intra", topic),
            tables.rows,
            tables.stride,
            params.fanout(tables.size),
        )
        #: held weakly: the network holds its block actors, so a strong
        #: reference back would leave a dropped system to the cycle
        #: collector
        self._network = weakref.proxy(network)

    # ------------------------------------------------------------------
    # Network entry point
    # ------------------------------------------------------------------
    def handle_batch(self, sender: int, targets, message: Message) -> None:
        """Deliver one message to every target index of this group."""
        if not isinstance(message, EventMessage):
            # §VII: tables drawn once never change, so a static group
            # takes part in floods only
            raise ProtocolError(
                f"static group {self.topic.name} cannot handle "
                f"{type(message).__name__}"
            )
        event = message.event
        mask = self._seen.get(event.event_id)
        if mask is None:
            # Property 4 (no parasite messages), asserted once per event
            # and group, by the first batch to bring it (the publisher's
            # group makes its mask in publish_from): every target shares
            # this group's topic, and every later batch the same event.
            if not self.hierarchy.includes(self.topic, event.topic):
                raise ProtocolError(
                    f"parasite delivery: group {self.topic.name} got event "
                    f"of {event.topic.name}"
                )
            mask = self._seen[event.event_id] = bytearray(self.tables.size)
        base = self.base
        multicast = None
        for pid in targets:
            index = pid - base
            if mask[index]:
                continue  # Fig. 5: later copies are ignored
            mask[index] = 1
            if multicast is None:
                # what a first receipt needs is loaded once per batch, and
                # not at all for a batch of later copies (most of a flood)
                multicast = self._multicast()
                hops = message.hops
                next_hops = hops + 1
                now = self.engine.now
                tracker = self.tracker
                callback = self._callback
                streams = self.streams
                fig7 = self._fig7
            if tracker is not None:
                tracker.record_delivery(pid, event, now, hops=hops)
            if callback is not None:
                callback(self.members[index], event)
            rng = streams[index]
            if rng is None:
                rng = streams[index] = self._rngs.stream(f"process/{pid}")
            forward(multicast, pid, event, next_hops, rng, False, index, *fig7)

    def _multicast(self):
        """The network's ``multicast``, which a group that outlived its
        system can no longer reach."""
        try:
            return self._network.multicast
        except ReferenceError:
            raise ConfigError(
                f"static group {self.topic.name} outlived its system: the "
                "network it floods on is gone"
            ) from None

    # ------------------------------------------------------------------
    # Publishing (driven by the system facade)
    # ------------------------------------------------------------------
    def publish_from(self, index: int, event: Event) -> None:
        """Fig. 7 lines 1-2 for the member at ``index``: deliver locally,
        then disseminate (the publisher has already been recorded). §IV-C:
        "p1 sends its events to at least one process from its super topic
        table" — the publisher always acts as a link."""
        pid = self.base + index
        mask = self._seen.get(event.event_id)
        if mask is None:
            mask = self._seen[event.event_id] = bytearray(self.tables.size)
        mask[index] = 1
        if self.tracker is not None:
            self.tracker.record_delivery(pid, event, self.engine.now, hops=0)
        if self._callback is not None:
            self._callback(self.members[index], event)
        rng = self.streams[index]
        if rng is None:
            rng = self.streams[index] = self._rngs.stream(f"process/{pid}")
        forward(self._multicast(), pid, event, 1, rng, True, index, *self._fig7)

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def release_event_state(self, event_id: EventId) -> None:
        """Drop the seen bitmask of a finished event (dedup state is only
        needed while copies are still in flight)."""
        self._seen.pop(event_id, None)

    def membership_bytes(self) -> int:
        """Bytes of frozen membership state for the whole group."""
        return self.tables.nbytes()

    def memory_footprint(self, pid: int) -> int:
        """A member's topic-table entries plus every supertopic table's
        (§VI-C; one table per direct supertopic under §VIII), read off the
        row lengths — the same for every member of the group."""
        tables = self.tables
        return tables.stride + sum(block.stride for block in tables.supers)

    def table_count(self, pid: int) -> int:
        """A member's topic table and one supertopic table per super
        block."""
        return 1 + len(self.tables.supers)
