"""The daMulticast process actor.

Glues together the protocol pieces for one process ``pl ∈ Π_Ti``:

* its two membership tables (topic table + supertopic table, §V-A.1),
* the dissemination logic (Fig. 5 RECEIVE / Fig. 7 DISSEMINATE),
* the bootstrap task (Fig. 4 FIND_SUPER_CONTACT),
* the maintenance task (Fig. 6 KEEP_TABLE_UPDATED),
* and, in dynamic mode, the underlying flat membership ([10]) with
  supertopic-table piggybacking (§V-A.2).

A process runs in one of two modes, matching the paper's two evaluation
settings: **dynamic** (:class:`DaMulticastProcess`: the full protocol with
join, bootstrap, shuffling and repair) and **static**
(:class:`StaticProcess`: tables drawn once at t=0 as a row of its group's
columns, no background tasks — the §VII simulator).
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Any, Callable, Sequence

from repro.core.bootstrap import FindSuperContact, handle_req_contact
from repro.core.dissemination import disseminate, elect_links
from repro.core.events import Event, EventFactory, EventId
from repro.core.maintenance import KeepTableUpdated
from repro.core.params import DaMulticastConfig
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

DeliveryCallback = Callable[["DaMulticastProcess", Event], None]


class GroupSizeCell:
    """A shared, mutable group-size counter.

    The system facade binds one cell per topic group to every member, so a
    join updates ``S_Ti`` for the whole group with one increment instead of
    an O(S) re-notification sweep per member (O(S²) per bootstrap wave).
    """

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value


class DaMulticastProcess:
    """One process interested in exactly one topic (§III-A), running the
    full protocol: its topic table is its flat membership's view, its
    supertopic table is maintained by bootstrap and repair, and both
    protocol tasks exist from construction. A member of the §VII simulator
    is a :class:`StaticProcess`, which reads its tables off its group's
    columns instead.

    ``rngs`` is the run's stream registry; the process draws from its
    ``process/{pid}`` stream only. A dynamic process seeds it at
    construction (it acts at once: its flat membership takes the stream).
    What only a publisher needs (its event factory) is made by the first
    :meth:`publish`.
    """

    #: whether the protocol maintains this process's tables as it runs
    dynamic = True

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
        overlay: BootstrapOverlay | None = None,
        tracker: DeliveryTracker | None = None,
        delivery_callback: DeliveryCallback | None = None,
        membership_config: FlatMembershipConfig | None = None,
        group_size_hint: int | None = None,
    ):
        self.pid = pid
        self.topic = topic
        self.config = config
        #: the system's topic graph, whose inclusion decides what this
        #: process may deliver (a tree, unless a static system linked)
        self._hierarchy = hierarchy
        self.engine = engine
        self.network = network
        self.rngs = rngs
        #: the ``process/{pid}`` stream once seeded (read it as :attr:`rng`)
        self._rng: random.Random | None = None
        self._overlay = overlay
        self._tracker = tracker
        self._delivery_callback = delivery_callback
        self._group_size_hint = group_size_hint
        self._group_size_cell: GroupSizeCell | None = None
        self._expected_provider: Callable[[], int] | None = None

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
        #: mints this process's events; made by its first :meth:`publish`
        self._event_factory: EventFactory | None = None
        self._init_tables(membership_config)

    def _init_tables(self, membership_config: FlatMembershipConfig | None) -> None:
        """The protocol's own tables — a flat membership view and a
        supertopic table — and both protocol tasks."""
        self.descriptor = ProcessDescriptor(self.pid, self.topic)
        self.intra_scope = Scope("intra", self.topic)
        self.super_table = SuperTopicTable(self.params.z)
        self.seen_requests: set[tuple[int, int]] = set()
        if membership_config is None:
            expected = self._group_size_hint or 16
            membership_config = FlatMembershipConfig(
                capacity=self.params.table_capacity(max(2, expected))
            )
        self.membership = FlatMembership(
            self.descriptor,
            self.topic,
            membership_config,
            self.engine,
            self._seed_rng(),
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
            timeout=self.config.bootstrap_timeout,
            ttl=self.config.bootstrap_ttl,
        )
        self.maintenance = KeepTableUpdated(
            self,
            interval=self.config.maintain_interval,
            ping_timeout=self.config.ping_timeout,
        )

    # ------------------------------------------------------------------
    # The process's random stream
    # ------------------------------------------------------------------
    def _seed_rng(self) -> random.Random:
        """Make ``_rng`` the ``process/{pid}`` stream (the one draw site)."""
        rng = self._rng = self.rngs.stream(f"process/{self.pid}")
        return rng

    @property
    def rng(self) -> random.Random:
        """This process's ``process/{pid}`` stream, seeded on first need.

        A plain property on purpose: ``functools.cached_property`` stores
        its value in the instance ``__dict__``, which slows every other
        attribute load of the instance, and a ``__getattr__`` hook slows
        them for the whole class (ROADMAP, *Settled*). The forwarding
        path reads ``_rng`` directly, after the gate that seeds it.
        """
        rng = self._rng
        return rng if rng is not None else self._seed_rng()

    # ------------------------------------------------------------------
    # Configuration accessors
    # ------------------------------------------------------------------
    @property
    def group_size(self) -> int:
        """Best-known size ``S_Ti`` of this process's group.

        Injected by the system facade (every system binds a size cell);
        a process no system sized estimates it conservatively from its
        topic table (self + known members).
        """
        if self._group_size_cell is not None:
            return max(1, self._group_size_cell.value)
        if self._group_size_hint is not None:
            return max(1, self._group_size_hint)
        if self.membership is not None:
            return len(self.membership.view) + 1
        tables = getattr(self, "tables", None)
        return (tables.stride if tables is not None else 0) + 1

    def bind_group_size(self, cell: GroupSizeCell) -> None:
        """Share a live group-size counter with this process.

        The cell takes precedence over any point-in-time hint, so the
        facade can grow a group without re-notifying every member (the
        former O(S)-per-join sweep). An explicit :meth:`set_group_size`
        unbinds it again.
        """
        self._group_size_cell = cell

    def bind_expected_receivers(self, provider: Callable[[], int]) -> None:
        """Share a live intended-receiver counter with this process.

        ``provider()`` is consulted at publish time to record how many
        processes the protocol would deliver the event to over a perfect
        network — by inclusion (§III-B), subscribers of this topic *and*
        of every supertopic. The facade binds it from global knowledge;
        unbound processes fall back to :attr:`group_size` (their own
        group only). Feeds the graceful-degradation denominators in
        :mod:`repro.metrics.degradation`.
        """
        self._expected_provider = provider

    def set_group_size(self, size: int) -> None:
        """Update the group-size hint (used for ``p_sel`` and fan-out).

        In dynamic mode the membership table's capacity follows the [10]
        law ``(b+1)·log(S)``, so the view is resized to match — a group
        that grew from 10 to 1000 members needs (and gets) bigger tables.
        """
        self._group_size_cell = None
        self._group_size_hint = size
        if self.membership is not None:
            capacity = self.params.table_capacity(max(2, size))
            if capacity != self.membership.view.capacity:
                self.membership.view.set_capacity(capacity, self.rng)

    def topic_table(self) -> PartialView:
        """The topic table ``Table_Ti``: the flat membership's view."""
        return self.membership.view

    def neighborhood(self) -> list[ProcessDescriptor]:
        """The weakly-consistent global contacts (``neighborhood(pl)``)."""
        if self._overlay is None or self.pid not in self._overlay:
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
    def publish(self, payload: Any = None) -> Event:
        """Publish an event on this process's topic and disseminate it."""
        self.subscribe()  # Fig. 7 line 2: DISSEMINATE starts with SUBSCRIBE
        if not self._sized_for:
            # a first publish sizes the group constants before its event
            # exists, so an unseated static process refuses here, before
            # anything is recorded
            self._size_group_constants()
        factory = self._event_factory
        if factory is None:
            factory = self._event_factory = EventFactory(self.pid)
        event = factory.create(self.topic, payload, self.engine.now)
        if self._tracker is not None:
            expected = (
                self._expected_provider()
                if self._expected_provider is not None
                else self.group_size
            )
            self._tracker.record_publish(event, self.pid, expected=expected)
        self.seen.add(event.event_id)
        self._deliver(event, hops=0)
        disseminate(
            self,
            event,
            force_link=self.config.publisher_always_links,
            arrival_hops=0,
        )
        return event

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
        elif not self.dynamic:
            # §VII: tables drawn once never change, so a static process
            # takes part in floods only
            raise ProtocolError(
                f"static process {self.pid} cannot handle "
                f"{type(message).__name__}"
            )
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
        (static mode: once; dynamic mode: when a join moved the cell) — and,
        a group size being at least 1 and ``_sized_for`` starting at 0, the
        stream a static process's first selection is about to draw from."""
        size = self.group_size
        self._fanout = self.params.fanout(size)
        self._p_sel = self.params.p_sel(size)
        self._sized_for = size
        if self._rng is None:
            self._seed_rng()

    def link_targets(self, force_link: bool) -> list[tuple[Topic, list[int]]]:
        """Supergroup pids this process hands an event up to (Fig. 7
        lines 3-7): empty unless it elects itself as a link."""
        if self.group_size != self._sized_for:
            self._size_group_constants()
        return elect_links(
            self.super_table, self._p_sel, self._p_a, self._rng, force_link
        )

    def gossip_targets(self) -> list[int]:
        """``log(S)+c`` distinct pids sampled from ``Table − Ω`` — fewer
        when the table is small (Fig. 7 lines 8-14)."""
        if self.group_size != self._sized_for:
            self._size_group_constants()
        return self.topic_table().sample_pids(self._fanout, self._rng, self.pid)

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
        if self._tracker is not None:
            self._tracker.record_delivery(
                self.pid, event, self.engine.now, hops=hops
            )
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


class StaticProcess(DaMulticastProcess):
    """A member of the §VII simulator: a row of its group's columns.

    ``finalize_static_membership`` draws each group's tables once, as the
    two pid columns of a :class:`~repro.membership.columnar.
    ColumnarGroupTables`, and seats every member at its row. A static
    process holds ``(tables, row)`` and nothing else of its tables: no
    view, no supertopic-table object, no protocol task. Fig. 7's two
    selections read the row in place (:meth:`ColumnarGroupTables.sample_row
    <repro.membership.columnar.ColumnarGroupTables.sample_row>`,
    :meth:`ColumnarGroupTables.link_targets
    <repro.membership.columnar.ColumnarGroupTables.link_targets>`); read the
    topic row with ``tables.row_pids(row)``. The group's intra scope is one
    object, handed to every member when it joins.

    The tables never change (§VII: "the membership algorithm does not
    'replace' a failed process"), so a static process takes part in floods
    only: any other message is a :class:`~repro.errors.ProtocolError`, as
    it is for the columnar host's group actor. A process no finalize has
    seated yet refuses to select with the system gate's
    :class:`~repro.errors.ConfigError`; a new finalize seats it afresh.

    The ``process/{pid}`` stream is seeded the first time Fig. 7 selects
    targets — behind the group-constants gate both selections already
    pass, so the forwarding path gains no check and no frame — or when
    anything reads :attr:`rng`, whichever comes first. Named streams are
    independent of each other and of when they are made, so every draw is
    the one an eagerly seeded process would make; a process that never
    acts — in the paper's own experiments (Figs. 8–10) most are stillborn
    or never reached — never pays for a Mersenne state.
    """

    dynamic = False
    #: a static process keeps no flat membership
    membership = None

    def _init_tables(self, membership_config: FlatMembershipConfig | None) -> None:
        #: the group's columns and this process's row in them, once seated
        self.tables: ColumnarGroupTables | None = None
        self.row = 0

    def seat(self, tables: ColumnarGroupTables, row: int) -> None:
        """Take row ``row`` of ``tables`` as this process's tables (what a
        finalize does to every member)."""
        self.tables = tables
        self.row = row

    @property
    def descriptor(self) -> ProcessDescriptor:
        """This process as a table entry (a value; made per read)."""
        return ProcessDescriptor(self.pid, self.topic)

    def subscribe(self, contact: ProcessDescriptor | None = None) -> None:
        self.subscribed = True  # the system's finalize draws the tables

    # ------------------------------------------------------------------
    # Fig. 7's two selections, off the row
    # ------------------------------------------------------------------
    def _size_group_constants(self) -> None:
        if self.tables is None:
            raise ConfigError(
                f"call finalize_static_membership() before process "
                f"{self.pid} selects: no finalize has seated it yet"
            )
        super()._size_group_constants()

    # Both selections gate on the bound size cell's value, a slot read; the
    # group_size property is consulted only when the cell is unbound or has
    # moved since the constants were resolved.
    def link_targets(
        self, force_link: bool
    ) -> Sequence[tuple[Topic, list[int]]]:
        cell = self._group_size_cell
        if (cell is None or cell.value != self._sized_for) and (
            self.group_size != self._sized_for
        ):
            self._size_group_constants()
        return self.tables.link_targets(
            self.row, self._p_sel, self._p_a, self._rng, force_link
        )

    def gossip_targets(self) -> list[int]:
        cell = self._group_size_cell
        if (cell is None or cell.value != self._sized_for) and (
            self.group_size != self._sized_for
        ):
            self._size_group_constants()
        return self.tables.sample_row(self.row, self._fanout, self._rng)

    # ------------------------------------------------------------------
    # Introspection, off the row lengths
    # ------------------------------------------------------------------

    @property
    def memory_footprint(self) -> int:
        """Topic-table entries plus every supertopic table's (§VI-C; one
        table per direct supertopic under §VIII), read off the row
        lengths."""
        tables = self.tables
        if tables is None:
            return 0
        return tables.stride + sum(block.stride for block in tables.supers)
