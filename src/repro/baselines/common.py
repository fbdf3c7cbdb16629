"""Shared machinery for the baseline systems.

Each baseline is an infect-and-die gossip over one or more *groups*: on the
first reception of an event in group ``G``, a process forwards it to
``log(|G|)+c`` members sampled from its ``G``-table. The baselines differ
only in how groups are formed (one global group / one per topic / arbitrary
clusters) and in which groups an event is injected.

"For fairness, all approaches use the same underlying membership
algorithm" (§VI-E): a baseline is the one static build of
:class:`~repro.runtime.ObjectSystemFacade`, as static daMulticast is —
pid-block member records, one finalize that fixes the membership, one
publish path. Its tables are frozen §VII tables drawn by
:mod:`repro.membership.columnar` and sized by the same
:class:`~repro.core.params.TopicParams` laws (``(b+1)·log(S)`` entries,
fan-out ``log(S)+c``), and the finalize registers one
:class:`BaselineActor` over every pid, ``[0, n)``. A baseline states only
its table draw, its expected-receiver count and the groups an event
enters in.

Group identity reuses :class:`repro.topics.Topic` so the existing
per-group message accounting (Figs. 8/9 counters) applies unchanged;
cluster groups of the hierarchical baseline use synthetic topics under
``.cluster``.
"""

from __future__ import annotations

import math
import random
import weakref
from typing import Mapping, Sequence

from repro.core.events import Event, EventId
from repro.core.params import TopicParams
from repro.errors import ConfigError, ProtocolError
from repro.failures.model import FailureModel
from repro.membership.columnar import ColumnarGroupTables, build_group_tables
from repro.net.latency import LatencyModel, ZERO_LATENCY
from repro.net.message import EventMessage, Message, Scope
from repro.runtime import ObjectSystemFacade, SimulationHarness
from repro.topics.topic import Topic
from repro.validation import check_finite, check_positive

#: a group's tables and the fan-out its members forward with
Seat = tuple[ColumnarGroupTables, int]


class BaselineActor:
    """The one block actor of a baseline, over pids ``[0, n)``.

    ``seats[group]`` lists the tables of ``group``: one pair per table
    set, whose rows are its ``tables.members``' (a naive publisher's
    supergroup table and the supergroup's own are two sets of one group).
    A member forwards in ``group`` from the row that seats it there, and
    not at all where none does.

    A first reception forwards in the group the event arrived in (Fig. 5's
    infect-and-die); dedup is one ``bytearray(n)`` per in-flight event,
    and member ``pid`` draws its targets from its
    ``baseline-process/{pid}`` stream, held in ``streams[pid]`` and seeded
    on its first forward. The actor holds its network weakly (the network
    holds the actor), so a dropped baseline is freed by reference count.
    """

    __slots__ = ("seats", "streams", "_size", "_seen", "_network", "_clock",
                 "_tracker", "rngs")

    def __init__(
        self,
        seats: Mapping[Topic, Sequence[Seat]],
        size: int,
        harness: SimulationHarness,
    ):
        #: group → [(tables, fanout, pid → row), …]
        self.seats = {
            group: [
                (tables, fanout, {pid: row for row, pid in enumerate(tables.members)})
                for tables, fanout in pairs
            ]
            for group, pairs in seats.items()
        }
        self.streams: list[random.Random | None] = [None] * size
        self._size = size
        #: event_id -> seen bitmask (1 byte per process, per event)
        self._seen: dict[EventId, bytearray] = {}
        self._network = weakref.proxy(harness.network)
        self._clock = harness.clock
        self._tracker = harness.tracker
        self.rngs = harness.rngs

    def handle_batch(self, sender: int, targets, message: Message) -> None:
        """First reception: deliver, then forward (:meth:`relay`)."""
        if not isinstance(message, EventMessage):
            raise ProtocolError(
                f"baseline process {targets[0]} got unexpected "
                f"{type(message).__name__}"
            )
        event = message.event
        mask = self._mask(event.event_id)
        group = message.scope.group
        for pid in targets:
            if mask[pid]:
                continue
            mask[pid] = 1
            self._tracker.record_delivery(pid, event, self._clock.now)
            self.relay(pid, event, group)

    def relay(self, pid: int, event: Event, group: Topic) -> None:
        """Forward a first reception in the group it arrived in."""
        self.forward(pid, event, group)

    def publish_from(self, pid: int, event: Event, groups: list[Topic]) -> None:
        """Deliver ``event`` at its publisher and inject it into each of
        ``groups`` (the publisher has already been recorded)."""
        self._mask(event.event_id)[pid] = 1
        self._tracker.record_delivery(pid, event, self._clock.now)
        for group in groups:
            self.forward(pid, event, group)

    def _mask(self, event_id: EventId) -> bytearray:
        mask = self._seen.get(event_id)
        if mask is None:
            mask = self._seen[event_id] = bytearray(self._size)
        return mask

    def forward(self, pid: int, event: Event, group: Topic) -> None:
        """Gossip ``event`` from ``pid`` to ``fanout`` entries of its row
        in ``group``."""
        for tables, fanout, rows in self.seats.get(group, ()):
            row = rows.get(pid)
            if row is None:
                continue
            rng = self.streams[pid]
            if rng is None:
                rng = self.streams[pid] = self.rngs.stream(
                    f"baseline-process/{pid}"
                )
            targets = tables.sample_row(row, fanout, rng)
            if targets:
                try:
                    self._send(pid, targets, event, group)
                except ReferenceError:
                    raise ConfigError(
                        f"baseline actor of {group.name} outlived its system: "
                        "the network it floods on is gone"
                    ) from None
            return

    def _send(self, pid: int, targets: list[int], event: Event, group: Topic) -> None:
        self._network.multicast(
            pid, targets, EventMessage(sender=pid, event=event, scope=Scope("intra", group))
        )

    def _tables_of(self, pid: int) -> list[ColumnarGroupTables]:
        return [
            tables
            for pairs in self.seats.values()
            for tables, _, rows in pairs
            if pid in rows
        ]

    def memory_footprint(self, pid: int) -> int:
        """Total membership entries across ``pid``'s tables (§VI-E.2
        measured)."""
        return sum(tables.stride for tables in self._tables_of(pid))

    def table_count(self, pid: int) -> int:
        """Number of membership tables ``pid`` maintains."""
        return len(self._tables_of(pid))


class BaselineSystem(ObjectSystemFacade):
    """A baseline on the one static build.

    Subclasses draw the tables (``_draw_tables(rng)`` → group →
    :data:`Seat` list), and may count every process as an intended
    receiver (:meth:`_expected_receivers`) and name the groups an event
    enters in (:meth:`_entry_groups`).
    """

    #: the block actor the finalize lays out
    _actor_class = BaselineActor

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
        self, group: Topic, pids: list[int], rng: random.Random
    ) -> Seat:
        """Draw ``group``'s in-group tables over ``pids``, rows in pid list
        order (each excludes its own member)."""
        size = len(pids)
        tables = build_group_tables(
            group, pids, self.params.table_capacity(size), rng
        )
        return tables, self.params.fanout(size)

    def _lay_out(self, rng: random.Random) -> None:
        """Register one actor over every pid, which every fan-out lies in."""
        size = len(self._processes)
        actor = self._actor_class(self._draw_tables(rng), size, self.harness)
        self.network.register_block(actor, 0, size)
        self._actors.update(dict.fromkeys(self._groups, actor))

    def _inject(self, pid: int, event: Event) -> None:
        self._actors[event.topic].publish_from(
            pid, event, self._entry_groups(pid, event.topic)
        )

    def _entry_groups(self, pid: int, topic: Topic) -> list[Topic]:
        """Where an event of ``topic`` starts: by default in its own topic
        group (§IV-A's pattern 1)."""
        return [topic]
