"""The §VII simulator's protocol actor: one block actor per static group.

The paper's static setting draws every table once at t=0 and never
changes it. A group is one contiguous pid block run by one
:class:`ColumnarGroupActor`, registered on the network as a block actor:

* its tables are the group's pid columns
  (:class:`~repro.membership.columnar.ColumnarGroupTables`), and a member
  is a row of them;
* Fig. 5's first-reception dedup is one ``bytearray(S)`` per in-flight
  event instead of a set per process;
* Fig. 7 runs inside the actor, one call per first receipt
  (:meth:`ColumnarGroupActor._forward`) over the member's rows, with
  ``fanout(S)``, ``p_sel(S)``, ``p_a`` and both scopes resolved once per
  group. Its draws are the ones
  :func:`~repro.core.dissemination.disseminate` makes for a dynamic
  process (:mod:`repro.core.process`) over tables holding the same rows,
  in the same order;
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
from typing import TYPE_CHECKING, Sequence

from repro.core.events import DeliveryCallback, Event, EventId
from repro.core.params import TopicParams
from repro.errors import ConfigError, ProtocolError
from repro.membership.columnar import ColumnarGroupTables
from repro.net.message import EventMessage, Message, Scope
from repro.net.network import Network
from repro.sim.clock import Clock
from repro.sim.rng import RngRegistry
from repro.topics.hierarchy import TopicHierarchy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import StaticMember


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
        "members", "_rngs", "_callback", "_seen",
        "_fanout", "_p_sel", "_p_a", "_intra_scope", "_supers", "_network",
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
        # What Fig. 7 reads that depends on the (static) group only,
        # resolved once: the group's ``fanout(S)``, ``p_sel(S)`` and
        # ``p_a``, both scopes, and per super block its rows
        self._fanout = params.fanout(tables.size)
        self._p_sel = params.p_sel(tables.size)
        self._p_a = params.p_a
        self._intra_scope = Scope("intra", topic)
        self._supers = tuple(
            (Scope("inter", topic, target), stride, rows)
            for target, stride, rows in tables.supers
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
        forward = None
        for pid in targets:
            index = pid - base
            if mask[index]:
                continue  # Fig. 5: later copies are ignored
            mask[index] = 1
            if forward is None:
                # what a first receipt needs is loaded once per batch, and
                # not at all for a batch of later copies (most of a flood)
                forward = self._forward
                hops = message.hops
                next_hops = hops + 1
                now = self.engine.now
                tracker = self.tracker
                callback = self._callback
                streams = self.streams
            if tracker is not None:
                tracker.record_delivery(pid, event, now, hops=hops)
            if callback is not None:
                callback(self.members[index], event)
            rng = streams[index]
            if rng is None:
                rng = streams[index] = self._rngs.stream(f"process/{pid}")
            forward(index, pid, rng, event, next_hops, False)

    def _forward(
        self,
        index: int,
        pid: int,
        rng: random.Random,
        event: Event,
        next_hops: int,
        force_link: bool,
    ) -> None:
        """Fig. 7's DISSEMINATE for member ``index`` (pid ``pid``), off its
        rows, with its stream ``rng``.

        Per super block, the link election (probability ``p_sel``, skipped
        when ``force_link``) and then one ``p_a`` draw per row entry, in row
        order (lines 3-7); then up to ``fanout(S)`` distinct topic-row pids
        (lines 8-14; the member's own pid is never in its row). Each
        non-empty selection goes out as one multicast of one message
        carrying ``next_hops``. These are the draws, in the order,
        :func:`~repro.core.dissemination.disseminate` makes over
        descriptor tables holding the same rows (tests/test_fig7_draw_order.py).
        """
        try:
            multicast = self._network.multicast
        except ReferenceError:
            raise ConfigError(
                f"static group {self.topic.name} outlived its system: the "
                "network it floods on is gone"
            ) from None
        random_draw = rng.random
        p_a = self._p_a
        for scope, stride, rows in self._supers:
            if force_link or random_draw() < self._p_sel:
                start = index * stride
                kept = [
                    target for target in rows[start : start + stride] if random_draw() < p_a
                ]
                if kept:
                    multicast(pid, kept, EventMessage(pid, event, scope, next_hops))
        targets = self.tables.sample_row(index, self._fanout, rng)
        if targets:
            multicast(
                pid, targets, EventMessage(pid, event, self._intra_scope, next_hops)
            )

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
        self._forward(index, pid, rng, event, 1, True)

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
