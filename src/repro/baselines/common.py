"""Shared machinery for the baseline systems.

Each baseline is an infect-and-die gossip over one or more *groups*: on the
first reception of an event in group ``G``, a process forwards it to
``log(|G|)+c`` members sampled from its ``G``-table. The baselines differ
only in how groups are formed (one global group / one per topic / arbitrary
clusters) and in which groups an event is injected.

"For fairness, all approaches use the same underlying membership
algorithm" (§VI-E): a baseline's tables are frozen §VII tables drawn by
:mod:`repro.membership.columnar`, as daMulticast's are, and sized by the
same :class:`~repro.core.params.TopicParams` laws (``(b+1)·log(S)``
entries, fan-out ``log(S)+c``). A process holds, per group, its row of
that group's tables and reads it in place
(:meth:`~repro.membership.columnar.ColumnarGroupTables.sample_row`).

Group identity reuses :class:`repro.topics.Topic` so the existing
per-group message accounting (Figs. 8/9 counters) applies unchanged;
cluster groups of the hierarchical baseline use synthetic topics under
``.cluster``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any

from repro.core.events import Event, EventFactory, EventId
from repro.core.params import TopicParams
from repro.errors import ConfigError
from repro.failures.model import FailureModel
from repro.membership.columnar import ColumnarGroupTables, build_group_tables
from repro.metrics.delivery import parasite_deliveries
from repro.net.latency import LatencyModel, ZERO_LATENCY
from repro.net.message import EventMessage, Message, Scope
from repro.runtime import ObjectSystemFacade, SimulationHarness
from repro.topics.topic import Topic
from repro.validation import check_finite, check_positive


@dataclass
class GroupState:
    """One process's participation in one gossip group: row ``row`` of the
    group's frozen ``tables``, and its fan-out."""

    group: Topic
    tables: ColumnarGroupTables
    row: int
    fanout: int


class BaselineProcess:
    """A process participating in one or more infect-and-die gossip groups.

    ``interest`` is what the process actually subscribed to — used only for
    parasite accounting; the gossip layer forwards everything it receives,
    which is precisely why broadcast-style baselines pay parasite messages.
    """

    def __init__(
        self,
        pid: int,
        interest: Topic,
        harness: SimulationHarness,
    ):
        self.pid = pid
        self.interest = interest
        self._harness = harness
        #: the ``baseline-process/{pid}`` stream once seeded (see :attr:`rng`)
        self._rng: random.Random | None = None
        self.groups: dict[Topic, GroupState] = {}
        self.seen: set[EventId] = set()
        #: mints this process's events; made by its first :meth:`make_event`
        self._event_factory: EventFactory | None = None

    @property
    def rng(self) -> random.Random:
        """This process's ``baseline-process/{pid}`` stream, seeded on
        first need — the convention of
        :attr:`repro.core.process.DaMulticastProcess.rng`: a process no
        flood reaches never pays for a Mersenne state."""
        rng = self._rng
        if rng is None:
            rng = self._rng = self._harness.rngs.stream(
                f"baseline-process/{self.pid}"
            )
        return rng

    # ------------------------------------------------------------------
    # Group membership
    # ------------------------------------------------------------------
    def join_group(
        self, group: Topic, tables: ColumnarGroupTables, row: int, fanout: int
    ) -> None:
        """Seat this process at row ``row`` of ``group``'s drawn tables."""
        self.groups[group] = GroupState(group, tables, row, fanout)

    @property
    def memory_footprint(self) -> int:
        """Total membership entries across all groups (§VI-E.2 measured)."""
        return sum(state.tables.stride for state in self.groups.values())

    @property
    def table_count(self) -> int:
        """Number of membership tables this process maintains."""
        return len(self.groups)

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------
    def publish_in_groups(
        self, event: Event, groups: list[Topic]
    ) -> None:
        """Inject ``event`` into each listed group (publisher side)."""
        self.seen.add(event.event_id)
        self._deliver(event)
        for group in groups:
            self._forward(event, group)

    def handle_message(self, message: Message) -> None:
        """First reception: deliver and forward within the same group."""
        if not isinstance(message, EventMessage):
            raise ConfigError(
                f"baseline process {self.pid} got unexpected "
                f"{type(message).__name__}"
            )
        event = message.event
        if event.event_id in self.seen:
            return
        self.seen.add(event.event_id)
        self._deliver(event)
        self._on_first_reception(event, message.scope)

    def _on_first_reception(self, event: Event, scope: Scope) -> None:
        """Default: forward in the group the event arrived in. The
        hierarchical baseline overrides this to add cross-cluster gossip."""
        self._forward(event, scope.group)

    def _forward(self, event: Event, group: Topic) -> None:
        state = self.groups.get(group)
        if state is None:
            return  # not a member (stale table entry pointed at us)
        targets = state.tables.sample_row(state.row, state.fanout, self.rng)
        if not targets:
            return
        self.multicast(
            targets,
            EventMessage(
                sender=self.pid, event=event, scope=Scope("intra", group)
            ),
        )

    def _deliver(self, event: Event) -> None:
        self._harness.tracker.record_delivery(
            self.pid, event, self._harness.now
        )

    def send(self, target: int, message: Message) -> None:
        """Send via the shared unreliable network."""
        self._harness.network.send(self.pid, target, message)

    def multicast(self, targets: list[int], message: Message) -> None:
        """Send one message to many targets via the batched fast path."""
        self._harness.network.multicast(self.pid, targets, message)

    def make_event(self, topic: Topic, payload: Any) -> Event:
        """Mint a new event from this process."""
        factory = self._event_factory
        if factory is None:
            factory = self._event_factory = EventFactory(self.pid)
        return factory.create(topic, payload, self._harness.now)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(pid={self.pid}, "
            f"interest={self.interest.name}, groups={len(self.groups)})"
        )


class BaselineSystem(ObjectSystemFacade):
    """Common facade: process management, publishing, reliability queries.

    Subclasses implement :meth:`finalize_membership` (which groups a
    process joins) and the two hooks under :meth:`publish`.
    """

    _finalize_verb = "finalize_membership"
    #: what ``_add_members`` instantiates
    _process_class = BaselineProcess

    def __init__(
        self,
        *,
        seed: int = 0,
        p_success: float = 1.0,
        latency: LatencyModel = ZERO_LATENCY,
        failure_model: FailureModel | None = None,
        b: float = 3.0,
        c: float = 5.0,
        log_base: float = math.e,
    ):
        super().__init__(
            SimulationHarness(
                seed=seed,
                p_success=p_success,
                latency=latency,
                failure_model=failure_model,
            )
        )
        # TopicParams' range checks let NaN through
        check_finite(b, "b")
        check_finite(c, "c")
        check_positive(log_base, "log_base")
        #: gossip constants shared by the baselines (paper defaults): table
        #: size ``params.table_capacity(S)``, fan-out ``params.fanout(S)``
        self.params = TopicParams(b=b, c=c, fanout_log_base=log_base)

    def _draw_group(
        self, group: Topic, members: list[BaselineProcess], rng: random.Random
    ) -> ColumnarGroupTables:
        """Draw ``group``'s in-group tables over ``members``, rows in member
        order (each excludes its own member), and seat every member at its
        row."""
        size = len(members)
        tables = build_group_tables(
            group, [p.pid for p in members], self.params.table_capacity(size), rng
        )
        fanout = self.params.fanout(size)
        for row, process in enumerate(members):
            process.join_group(group, tables, row, fanout)
        return tables

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def _add_members(self, interest: Topic, count: int) -> list[BaselineProcess]:
        """The body of ``add_process`` / ``add_group``: ``count`` processes
        subscribed to ``interest``."""
        harness = self.harness
        created = [
            self._process_class(harness.next_pid(), interest, harness)
            for _ in range(count)
        ]
        for process in created:
            harness.network.register(process)
            self._processes[process.pid] = process
        self._groups.setdefault(interest, []).extend(created)
        return created

    # ------------------------------------------------------------------
    # Queries shared by all baselines
    # ------------------------------------------------------------------
    def interested_in(self, topic: Topic | str) -> list[BaselineProcess]:
        """Processes whose subscription *includes* events of ``topic``.

        A subscriber of ``Ta`` is interested in events of every subtopic,
        so this returns subscribers of ``topic`` and of its supertopics.
        """
        resolved = Topic.parse(topic) if isinstance(topic, str) else topic
        return [
            p for p in self.processes if p.interest.includes(resolved)
        ]

    def parasite_count(self) -> int:
        """Total parasite deliveries so far (§I's efficiency criterion)."""
        return parasite_deliveries(self.tracker, self.interests())

    def memory_footprints(self) -> list[int]:
        """Measured membership entries per process."""
        return [p.memory_footprint for p in self.processes]

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        topic: Topic | str,
        payload: Any = None,
        *,
        publisher: BaselineProcess | None = None,
    ) -> Event:
        """Publish an event on ``topic`` from ``publisher`` (default: an
        elected alive subscriber); an unregistered topic is
        :class:`~repro.errors.UnknownTopic`. A baseline differs in who it
        expects to receive (:meth:`_expected`) and where the event enters
        (:meth:`_inject`)."""
        self._require_finalized()
        resolved = self.hierarchy.require(
            Topic.parse(topic) if isinstance(topic, str) else topic
        )
        chosen = self._publisher(resolved, publisher)
        event = chosen.make_event(resolved, payload)
        self.tracker.record_publish(
            event, chosen.pid, expected=self._expected(resolved)
        )
        self._inject(chosen, event)
        return event

    def _expected(self, topic: Topic) -> int:
        """How many processes an event of ``topic`` is meant to reach: the
        interested set, unless the baseline floods everyone."""
        return len(self.interested_in(topic))

    def _inject(self, publisher: BaselineProcess, event: Event) -> None:
        """Start the dissemination: by default in the event's own topic
        group (§IV-A's pattern 1)."""
        publisher.publish_in_groups(event, [event.topic])

    # ------------------------------------------------------------------
    # To be provided by each baseline
    # ------------------------------------------------------------------
    def finalize_membership(self) -> None:
        """Draw all static tables (baseline-specific)."""
        raise NotImplementedError
