"""The dynamic daMulticast process: the full protocol, one object per
process.

:class:`DaMulticastProcess` glues together the protocol pieces for
``pl ∈ Π_Ti``:

* its two membership tables (topic table + supertopic table, §V-A.1),
* delivery and Fig. 7 DISSEMINATE on a first receipt
  (:meth:`DaMulticastProcess.deliver`, through the one kernel,
  :func:`~repro.core.group_actor.forward`),
* the bootstrap task (Fig. 4 FIND_SUPER_CONTACT),
* the maintenance task (Fig. 6 KEEP_TABLE_UPDATED),
* and the underlying flat membership ([10]) with supertopic-table
  piggybacking (§V-A.2).

A network holds blocks only, so a dynamic system's processes (one
contiguous pid range) are one :class:`ProcessBlock` that grows per join
and runs Fig. 5's RECEIVE as a static group's block actor does: one seen
bitmask per event. The §VII simulator's static groups are run by
:class:`~repro.core.group_actor.ColumnarGroupActor`, which imports
nothing from here: a static run never loads this module.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping, Sequence

from repro.core.bootstrap import FindSuperContact, handle_req_contact
from repro.core.events import DeliveryCallback, Event, EventId
from repro.core.group_actor import forward
from repro.core.maintenance import KeepTableUpdated
from repro.core.params import DaMulticastConfig
from repro.core.tables import SuperTopicTable
from repro.errors import ProtocolError
from repro.membership.flat import FlatMembership, FlatMembershipConfig
from repro.membership.overlay import BootstrapOverlay
from repro.membership.view import PartialView, ProcessDescriptor
from repro.metrics.collector import DeliveryTracker
from repro.net.control import (
    AnsContact,
    JoinRequest,
    MembershipGossip,
    NewProcessReply,
    NewProcessRequest,
    Ping,
    Pong,
    ReqContact,
)
from repro.net.message import EventMessage, Message, Scope
from repro.net.network import Network
from repro.sim.clock import Clock
from repro.sim.rng import RngRegistry
from repro.topics.hierarchy import TopicHierarchy
from repro.topics.topic import Topic


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
    :class:`~repro.core.group_actor.ColumnarGroupActor` instead.

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
        #: and ``p_sel(S)`` are resolved for the last group size a first
        #: receipt saw (``_sized_for``), not once per forwarder
        self._p_a = params.p_a
        self._sized_for = 0
        self._fanout = 0
        self._p_sel = 0.0
        #: the inter scope of the last supertopic this process handed an
        #: event up to (a table re-targets seldom)
        self._inter_scope: Scope | None = None
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
    # Message handling
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        """Network entry point: dispatch one delivered control message
        (events go through the block, :meth:`ProcessBlock.handle_batch`)."""
        if isinstance(message, ReqContact):
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
    # A first receipt (Fig. 5 lines 7-9, Fig. 7)
    # ------------------------------------------------------------------
    def deliver(self, event: Event, hops: int, force_link: bool) -> None:
        """Deliver ``event``, which reached this process for the first time
        after ``hops`` transmissions (0 for the publisher), and disseminate
        it (:func:`~repro.core.group_actor.forward`, over its supertopic
        table as one super block and its view's pids as its topic row).
        The block dedups before it calls this."""
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
        size = self.group_size
        if size != self._sized_for:  # a join moved the group's cell
            self._fanout = self.params.fanout(size)
            self._p_sel = self.params.p_sel(size)
            self._sized_for = size
        supers = ()
        links = self.super_table.pids
        if links:
            # every entry is of the table's target topic (adopt and
            # merge_fresh admit no other)
            target = self.super_table.target_topic
            scope = self._inter_scope
            if scope is None or scope.super_group is not target:
                scope = self._inter_scope = Scope("inter", self.topic, target)
            supers = ((scope, len(links), links),)
        row = self.membership.view.pids
        forward(
            self.network.multicast, self.pid, event, hops + 1, self.rng,
            force_link, 0, supers, self._p_sel, self._p_a, self.intra_scope,
            row, len(row), self._fanout,
        )

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
    """A dynamic system's processes as one block actor over pids
    ``base, base+1, …``: ``processes`` maps each to its process (the
    system's registry, grown per join and emptied by its close).

    Fig. 5's first-reception dedup is the static group actor's: one
    ``bytearray`` per event over the block, indexed ``pid - base`` and
    extended when a process that joined after the event's first copy
    receives it. A first receipt reaches :meth:`DaMulticastProcess.deliver`
    in target order; every other message kind reaches each target's
    ``handle_message``.
    """

    __slots__ = ("processes", "base", "_seen")

    def __init__(self, processes: Mapping[int, DaMulticastProcess], base: int):
        self.processes = processes
        self.base = base
        #: event_id -> seen bitmask (1 byte per process of the block)
        self._seen: dict[EventId, bytearray] = {}

    def _mask(self, event_id: EventId) -> bytearray:
        """The event's seen bitmask, covering every process of the block."""
        mask = self._seen.get(event_id)
        if mask is None:
            mask = self._seen[event_id] = bytearray(len(self.processes))
        elif len(mask) < len(self.processes):
            mask.extend(bytes(len(self.processes) - len(mask)))
        return mask

    def handle_batch(self, sender: int, targets, message: Message) -> None:
        processes = self.processes
        if not isinstance(message, EventMessage):
            for pid in targets:
                processes[pid].handle_message(message)
            return
        event = message.event
        mask = self._seen.get(event.event_id)
        if mask is None or len(mask) < len(processes):
            mask = self._mask(event.event_id)
        base = self.base
        hops = message.hops
        for pid in targets:
            index = pid - base
            if mask[index]:
                continue  # Fig. 5: later copies are ignored
            mask[index] = 1
            processes[pid].deliver(event, hops, False)

    def publish_from(self, index: int, event: Event) -> None:
        """Fig. 7 lines 1-2 for the process at ``index``: join, deliver
        locally, then disseminate (the publisher has already been
        recorded). §IV-C: "p1 sends its events to at least one process
        from its super topic table" — the publisher always acts as a
        link."""
        process = self.processes[self.base + index]
        process.subscribe()  # Fig. 7 line 2: DISSEMINATE starts with SUBSCRIBE
        self._mask(event.event_id)[index] = 1
        process.deliver(event, 0, True)
