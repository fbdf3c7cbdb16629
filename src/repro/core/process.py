"""The daMulticast process actors.

A process runs in one of two modes, matching the paper's two evaluation
settings.

**Dynamic** — :class:`DaMulticastProcess`, one object per process gluing
together the protocol pieces for ``pl ∈ Π_Ti``:

* its two membership tables (topic table + supertopic table, §V-A.1),
* the dissemination logic (Fig. 5 RECEIVE / Fig. 7 DISSEMINATE),
* the bootstrap task (Fig. 4 FIND_SUPER_CONTACT),
* the maintenance task (Fig. 6 KEEP_TABLE_UPDATED),
* and the underlying flat membership ([10]) with supertopic-table
  piggybacking (§V-A.2).

A network holds blocks only, so a dynamic system's processes (one
contiguous pid range) are one :class:`ProcessBlock` that grows per join.

**Static** — the §VII simulator, whose tables are drawn once at t=0 and
never change. A group is one contiguous pid block run by one
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
  process over tables holding the same rows, in the same order;
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
tables cost, read off its group's actor.
"""

from __future__ import annotations

import random
import weakref
from collections import defaultdict
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.core.bootstrap import FindSuperContact, handle_req_contact
from repro.core.dissemination import disseminate, elect_links
from repro.core.events import Event, EventId
from repro.core.maintenance import KeepTableUpdated
from repro.core.params import DaMulticastConfig, TopicParams
from repro.core.tables import SuperTopicTable
from repro.errors import ConfigError, ProtocolError
from repro.membership.columnar import ColumnarGroupTables
from repro.membership.flat import FlatMembership, FlatMembershipConfig
from repro.membership.overlay import BootstrapOverlay
from repro.membership.view import PartialView, ProcessDescriptor
from repro.metrics.collector import DeliveryTracker
from repro.net.message import (
    AnsContact,
    EventMessage,
    JoinRequest,
    MembershipGossip,
    Message,
    NewProcessReply,
    NewProcessRequest,
    Ping,
    Pong,
    ReqContact,
    Scope,
)
from repro.net.network import Network
from repro.sim.clock import Clock
from repro.sim.rng import RngRegistry
from repro.topics.hierarchy import TopicHierarchy
from repro.topics.topic import Topic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import StaticMember

#: called with the delivering member — a :class:`DaMulticastProcess` or a
#: :class:`~repro.runtime.StaticMember` — and the event, once per first
#: delivery
DeliveryCallback = Callable[[Any, Event], None]


class GroupSizeCell:
    """A shared, mutable group-size counter.

    The system facade hands one cell per topic group to every member it
    builds, so a join updates ``S_Ti`` for the whole group with one
    increment instead of an O(S) re-notification sweep per member (O(S²)
    per bootstrap wave).
    """

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value


class DaMulticastProcess:
    """One process interested in exactly one topic (§III-A), running the
    full protocol: its topic table is its flat membership's view, its
    supertopic table is maintained by bootstrap and repair, and both
    protocol tasks exist from construction. A member of the §VII simulator
    is a :class:`~repro.runtime.StaticMember` of its group's
    :class:`ColumnarGroupActor` instead.

    ``rngs`` is the run's stream registry; the process draws from its
    ``process/{pid}`` stream only, seeded at construction (it acts at
    once: its flat membership takes the stream). ``group_size`` is its
    group's :class:`GroupSizeCell`, shared with every member; the system
    mints and records the events it publishes.
    """

    def __init__(
        self,
        pid: int,
        topic: Topic,
        config: DaMulticastConfig,
        *,
        engine: Clock,
        network: Network,
        rngs: RngRegistry,
        hierarchy: TopicHierarchy,
        overlay: BootstrapOverlay,
        tracker: DeliveryTracker,
        group_size: GroupSizeCell,
        delivery_callback: DeliveryCallback | None = None,
    ):
        self.pid = pid
        self.topic = topic
        self.config = config
        #: the system's topic graph, whose inclusion decides what this
        #: process may deliver
        self._hierarchy = hierarchy
        self.engine = engine
        self.network = network
        #: this process's ``process/{pid}`` stream
        self.rng = rngs.stream(f"process/{pid}")
        self._overlay = overlay
        self._tracker = tracker
        self._delivery_callback = delivery_callback
        self._group_size_cell = group_size

        #: the parameters governing this process's topic group (the config
        #: is immutable, so they are resolved once)
        params = self.params = config.params_for(topic)
        #: Fig. 7's group constants: ``p_a`` never changes; ``fanout(S)``
        #: and ``p_sel(S)`` are resolved for the last group size a
        #: selection saw (``_sized_for``), not once per forwarder
        self._p_a = params.p_a
        self._sized_for = 0
        self._fanout = 0
        self._p_sel = 0.0
        self.seen: set[EventId] = set()
        self.subscribed = False

        # The protocol's own tables — a flat membership view and a
        # supertopic table — and both protocol tasks.
        self.descriptor = ProcessDescriptor(pid, topic)
        self.intra_scope = Scope("intra", topic)
        self.super_table = SuperTopicTable(params.z)
        self.seen_requests: set[tuple[int, int]] = set()
        self.membership = FlatMembership(
            self.descriptor,
            topic,
            FlatMembershipConfig(capacity=params.table_capacity(16)),
            engine,
            self.rng,
            self.send,
            multicast=self.multicast,
            super_sample_provider=self._piggyback_super_sample,
            super_sample_consumer=self._merge_piggybacked_super,
        )
        # The two protocol tasks — Fig. 4's FIND_SUPER_CONTACT and Fig. 6's
        # KEEP_TABLE_UPDATED. The timer path reads both on every tick:
        # build them now, so that they are plain instance attributes.
        self.find_super_contact = FindSuperContact(
            self,
            timeout=config.bootstrap_timeout,
            ttl=config.bootstrap_ttl,
        )
        self.maintenance = KeepTableUpdated(
            self,
            interval=config.maintain_interval,
            ping_timeout=config.ping_timeout,
        )

    # ------------------------------------------------------------------
    # Configuration accessors
    # ------------------------------------------------------------------
    @property
    def group_size(self) -> int:
        """Best-known size ``S_Ti`` of this process's group, read off the
        group's shared cell."""
        return max(1, self._group_size_cell.value)

    def topic_table(self) -> PartialView:
        """The topic table ``Table_Ti``: the flat membership's view."""
        return self.membership.view

    def neighborhood(self) -> list[ProcessDescriptor]:
        """The weakly-consistent global contacts (``neighborhood(pl)``)."""
        if self.pid not in self._overlay:
            return []
        return self._overlay.neighborhood(self.pid)

    # ------------------------------------------------------------------
    # Lifecycle (Fig. 5 SUBSCRIBE)
    # ------------------------------------------------------------------
    def subscribe(self, contact: ProcessDescriptor | None = None) -> None:
        """Join the group (Fig. 5 lines 1-4).

        Starts the underlying membership (dynamic mode), the link
        maintenance task, and — when no supercontact is known — the
        bootstrap search.
        """
        if self.subscribed:
            return
        self.subscribed = True
        self.membership.start(contact)
        self.maintenance.start()
        if self.super_table.is_empty and not self.topic.is_root:
            self.find_super_contact.start()

    # ------------------------------------------------------------------
    # Publishing (Fig. 7 lines 1-2)
    # ------------------------------------------------------------------
    def publish(self, event: Event) -> None:
        """Deliver ``event``, which the system minted and recorded for this
        process, and disseminate it."""
        self.subscribe()  # Fig. 7 line 2: DISSEMINATE starts with SUBSCRIBE
        self.seen.add(event.event_id)
        self._deliver(event, hops=0)
        # §IV-C: "p1 sends its events to at least one process from its
        # super topic table" — the publisher always acts as a link
        disseminate(self, event, force_link=True)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        """Network entry point: dispatch one delivered message."""
        if isinstance(message, EventMessage):
            # Fig. 5 lines 5-10, RECEIVE: only the first copy of an event
            # is delivered and disseminated. Most receptions of a flood
            # are later copies, and they end here, in this frame.
            event = message.event
            if event.event_id in self.seen:
                return
            self.seen.add(event.event_id)
            self._deliver(event, hops=message.hops)
            disseminate(self, event, arrival_hops=message.hops)
        elif isinstance(message, ReqContact):
            handle_req_contact(self, message)
        elif isinstance(message, AnsContact):
            self.find_super_contact.on_answer(message)
        elif isinstance(message, NewProcessRequest):
            self.maintenance.on_new_process_request(message)
        elif isinstance(message, NewProcessReply):
            self.maintenance.on_new_process_reply(message)
        elif isinstance(message, Ping):
            self.send(message.sender, Pong(sender=self.pid, nonce=message.nonce))
        elif isinstance(message, Pong):
            self.super_table.record_proof_of_life(message.sender, self.engine.now)
        elif isinstance(message, (JoinRequest, MembershipGossip)):
            self.membership.handle_message(message)
        else:
            raise ProtocolError(
                f"process {self.pid} cannot handle {type(message).__name__}"
            )

    def send(self, target: int, message: Message) -> None:
        """Send via the (unreliable) network."""
        self.network.send(self.pid, target, message)

    def multicast(self, targets: Sequence[int], message: Message) -> None:
        """Send one message to many targets via the batched fast path."""
        self.network.multicast(self.pid, targets, message)

    # ------------------------------------------------------------------
    # DisseminationPeer: Fig. 7's two selections, as pids
    # ------------------------------------------------------------------
    def _size_group_constants(self) -> None:
        """Resolve ``fanout(S)`` and ``p_sel(S)`` for the current group size
        (when a join moved the cell)."""
        size = self.group_size
        self._fanout = self.params.fanout(size)
        self._p_sel = self.params.p_sel(size)
        self._sized_for = size

    def link_targets(self, force_link: bool) -> list[tuple[Topic, list[int]]]:
        """Supergroup pids this process hands an event up to (Fig. 7
        lines 3-7): empty unless it elects itself as a link."""
        if self.group_size != self._sized_for:
            self._size_group_constants()
        return elect_links(
            self.super_table, self._p_sel, self._p_a, self.rng, force_link
        )

    def gossip_targets(self) -> list[int]:
        """``log(S)+c`` distinct pids sampled from ``Table − Ω`` — fewer
        when the table is small (Fig. 7 lines 8-14)."""
        if self.group_size != self._sized_for:
            self._size_group_constants()
        return self.topic_table().sample_pids(self._fanout, self.rng, self.pid)

    # ------------------------------------------------------------------
    # Delivery to the application (Fig. 5 line 8)
    # ------------------------------------------------------------------
    def _deliver(self, event: Event, hops: int = 0) -> None:
        # The paper's property 4: no parasite messages, ever. Make it a
        # hard invariant instead of trusting the routing. On a tree the
        # hierarchy's inclusion is Topic.includes itself (one frame).
        if not self._hierarchy.includes(self.topic, event.topic):
            raise ProtocolError(
                f"parasite delivery: process {self.pid} (topic "
                f"{self.topic.name}) got event of {event.topic.name}"
            )
        self._tracker.record_delivery(self.pid, event, self.engine.now, hops=hops)
        if self._delivery_callback is not None:
            self._delivery_callback(self, event)

    # ------------------------------------------------------------------
    # Supertopic-table piggybacking over membership gossip (§V-A.2)
    # ------------------------------------------------------------------
    def _piggyback_super_sample(self) -> tuple[ProcessDescriptor, ...]:
        return tuple(self.super_table.sample(2, self.rng))

    def _merge_piggybacked_super(
        self, descriptors: tuple[ProcessDescriptor, ...]
    ) -> None:
        by_topic: dict[Topic, list[ProcessDescriptor]] = defaultdict(list)
        for descriptor in descriptors:
            by_topic[descriptor.topic].append(descriptor)
        for topic, group in by_topic.items():
            self.super_table.adopt(topic, group, self.rng, own_topic=self.topic)
        # A fully initialized table makes the search redundant (Fig. 4:
        # "the aim of disseminating the supertopic table ... is to reduce
        # the number of messages during the initialization").
        if self.super_table.targets_direct_super_of(self.topic):
            self.find_super_contact.stop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def memory_footprint(self) -> int:
        """Measured membership state: topic-table + supertopic-table entries.

        This is the quantity §VI-C bounds by ``ln(S)+c+z``; benchmarks
        report it measured, not assumed.
        """
        return len(self.topic_table()) + len(self.super_table)


class ProcessBlock:
    """A dynamic system's processes as one block actor: ``processes`` maps
    every pid of the block to its process (the system's registry, emptied
    by its close), and a batch reaches each target's ``handle_message`` in
    target order, as one delivery per pid would."""

    __slots__ = ("processes",)

    def __init__(self, processes: Mapping[int, Any]):
        self.processes = processes

    def handle_batch(self, sender: int, targets, message: Message) -> None:
        processes = self.processes
        for pid in targets:
            processes[pid].handle_message(message)


# ----------------------------------------------------------------------
# The §VII simulator: one block actor per group
# ----------------------------------------------------------------------
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
