"""The dynamic daMulticast process: the full protocol, one object per
process.

:class:`DaMulticastProcess` glues together the protocol pieces for
``pl ∈ Π_Ti``:

* its two membership tables (topic table + supertopic table, §V-A.1),
* the dissemination logic (Fig. 5 RECEIVE / Fig. 7 DISSEMINATE),
* the bootstrap task (Fig. 4 FIND_SUPER_CONTACT),
* the maintenance task (Fig. 6 KEEP_TABLE_UPDATED),
* and the underlying flat membership ([10]) with supertopic-table
  piggybacking (§V-A.2).

A network holds blocks only, so a dynamic system's processes (one
contiguous pid range) are one :class:`ProcessBlock` that grows per join.
The §VII simulator's static groups are run by
:class:`~repro.core.group_actor.ColumnarGroupActor` instead, which
imports nothing from here: a static run never loads this module.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Mapping, Sequence

from repro.core.bootstrap import FindSuperContact, handle_req_contact
from repro.core.dissemination import disseminate, elect_links
from repro.core.events import DeliveryCallback, Event, EventId
from repro.core.maintenance import KeepTableUpdated
from repro.core.params import DaMulticastConfig
from repro.core.tables import SuperTopicTable
from repro.errors import ProtocolError
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
