"""The daMulticast process actor.

Glues together the protocol pieces for one process ``pl ∈ Π_Ti``:

* its two membership tables (topic table + supertopic table, §V-A.1),
* the dissemination logic (Fig. 5 RECEIVE / Fig. 7 DISSEMINATE),
* the bootstrap task (Fig. 4 FIND_SUPER_CONTACT),
* the maintenance task (Fig. 6 KEEP_TABLE_UPDATED),
* and, in dynamic mode, the underlying flat membership ([10]) with
  supertopic-table piggybacking (§V-A.2).

A process runs in one of two modes, matching the paper's two evaluation
settings: **static** (tables injected once at t=0, no background tasks —
the §VII simulator) and **dynamic** (the full protocol with join,
bootstrap, shuffling and repair).
"""

from __future__ import annotations

import functools
import random
from collections import defaultdict
from typing import Any, Callable, Sequence

from repro.core.bootstrap import FindSuperContact, handle_req_contact
from repro.core.dissemination import disseminate, elect_links
from repro.core.events import Event, EventFactory, EventId
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

    def __repr__(self) -> str:
        return f"GroupSizeCell({self.value})"


class DaMulticastProcess:
    """One process interested in exactly one topic (§III-A).

    ``rngs`` is the run's stream registry; the process draws from its
    ``process/{pid}`` stream only. A dynamic process seeds it at
    construction (it acts at once: its flat membership takes the stream).
    A static process seeds it the first time Fig. 7 selects targets —
    behind the group-constants gate both selections already pass, so the
    forwarding path gains no check and no frame — or when anything reads
    :attr:`rng`, whichever comes first. Named streams are independent of
    each other and of when they are made, so every draw is the one an
    eagerly seeded process would make; a process that never acts — in the
    paper's own experiments (Figs. 8–10) most are stillborn or never
    reached — never pays for a Mersenne state. What only a publisher needs
    (its event factory) is likewise made by the first :meth:`publish`.
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
        overlay: BootstrapOverlay | None = None,
        tracker: DeliveryTracker | None = None,
        delivery_callback: DeliveryCallback | None = None,
        dynamic: bool = True,
        membership_config: FlatMembershipConfig | None = None,
        group_size_hint: int | None = None,
    ):
        self.pid = pid
        self.topic = topic
        self.config = config
        self.engine = engine
        self.network = network
        self.rngs = rngs
        #: the ``process/{pid}`` stream once seeded (read it as :attr:`rng`)
        self._rng: random.Random | None = None
        self.descriptor = ProcessDescriptor(pid, topic)
        self.intra_scope = Scope("intra", topic)
        self.dynamic = dynamic
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
        self.super_table = SuperTopicTable(params.z)
        self.seen: set[EventId] = set()
        self.seen_requests: set[tuple[int, int]] = set()
        self.delivered: list[Event] = []
        self.subscribed = False
        #: mints this process's events; made by its first :meth:`publish`
        self._event_factory: EventFactory | None = None

        #: static mode: the frozen table ``finalize_static_membership``
        #: installs (until then :meth:`topic_table` makes an empty one)
        self._static_view: PartialView | None = None
        if dynamic:
            if membership_config is None:
                expected = group_size_hint if group_size_hint else 16
                membership_config = FlatMembershipConfig(
                    capacity=params.table_capacity(max(2, expected))
                )
            self.membership: FlatMembership | None = FlatMembership(
                self.descriptor,
                topic,
                membership_config,
                engine,
                self._seed_rng(),
                self.send,
                multicast=self.multicast,
                super_sample_provider=self._piggyback_super_sample,
                super_sample_consumer=self._merge_piggybacked_super,
            )
            # The timer path reads both tasks on every tick: build them now,
            # so that they are plain instance attributes from the start.
            self.find_super_contact = self._bootstrap_task()
            self.maintenance = self._maintenance_task()
        else:
            self.membership = None

    # ------------------------------------------------------------------
    # The two protocol tasks
    # ------------------------------------------------------------------
    def _bootstrap_task(self) -> FindSuperContact:
        """Fig. 4's FIND_SUPER_CONTACT task of this process."""
        return FindSuperContact(
            self,
            timeout=self.config.bootstrap_timeout,
            ttl=self.config.bootstrap_ttl,
        )

    def _maintenance_task(self) -> KeepTableUpdated:
        """Fig. 6's KEEP_TABLE_UPDATED task of this process."""
        return KeepTableUpdated(
            self,
            interval=self.config.maintain_interval,
            ping_timeout=self.config.ping_timeout,
        )

    # A static process never starts either task, and a task points back at
    # its process: built on first touch instead, they leave the process in
    # no reference cycle of its own, so a closed system's processes are
    # freed by reference count. ``cached_property`` defines no ``__set__``,
    # so the instance attribute — assigned by the constructor in dynamic
    # mode — shadows it and every read after the first is a plain one.
    find_super_contact = functools.cached_property(_bootstrap_task)
    maintenance = functools.cached_property(_maintenance_task)

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

        Injected by the system facade when global knowledge exists (static
        simulations); otherwise conservatively estimated from the topic
        table (self + known members).
        """
        if self._group_size_cell is not None:
            return max(1, self._group_size_cell.value)
        if self._group_size_hint is not None:
            return max(1, self._group_size_hint)
        return len(self.topic_table()) + 1

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
        """The topic table ``Table_Ti`` (whoever maintains it)."""
        if self.membership is not None:
            return self.membership.view
        view = self._static_view
        if view is None:  # static mode, before finalize_static_membership
            view = self._static_view = PartialView(
                self.params.table_capacity(
                    max(2, self._group_size_hint or 2)
                )
            )
        return view

    def install_static_topic_table(self, view: PartialView) -> None:
        """Replace the frozen topic table (static mode only).

        Used by :meth:`repro.core.system.DaMulticastSystem.finalize_static_membership`,
        which knows the final group sizes and therefore the right capacity
        ``(b+1)·log(S)`` — unknown at process construction time.
        """
        if self.dynamic:
            raise ProtocolError(
                "static topic tables cannot be installed on a dynamic process"
            )
        self._static_view = view

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
        if not self.dynamic:
            return  # static mode: tables are injected externally
        if self.membership is not None:
            self.membership.start(contact)
        self.maintenance.start()
        if self.super_table.is_empty and not self.topic.is_root:
            self.find_super_contact.start()

    def unsubscribe(self) -> None:
        """Stop all protocol activity for this process."""
        self.subscribed = False
        if self.membership is not None:
            self.membership.stop()
        self.maintenance.stop()
        self.find_super_contact.stop()

    # ------------------------------------------------------------------
    # Publishing (Fig. 7 lines 1-2)
    # ------------------------------------------------------------------
    def publish(self, payload: Any = None) -> Event:
        """Publish an event on this process's topic and disseminate it."""
        self.subscribe()  # Fig. 7 line 2: DISSEMINATE starts with SUBSCRIBE
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
            if self.membership is not None:
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
        # hard invariant instead of trusting the routing.
        if not self.topic.includes(event.topic):
            raise ProtocolError(
                f"parasite delivery: process {self.pid} (topic "
                f"{self.topic.name}) got event of {event.topic.name}"
            )
        self.delivered.append(event)
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

    def __repr__(self) -> str:
        mode = "dynamic" if self.dynamic else "static"
        return (
            f"DaMulticastProcess(pid={self.pid}, topic={self.topic.name}, "
            f"{mode}, table={len(self.topic_table())}, "
            f"super={len(self.super_table)})"
        )
