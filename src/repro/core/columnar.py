"""ColumnarStaticSystem — the §VII simulator at 10⁵–10⁶ processes.

The object backend (:class:`~repro.core.system.DaMulticastSystem`) builds
one :class:`~repro.core.process.DaMulticastProcess` per process — its own
RNG stream, tables, descriptor, actor registration. That graph is what
hits the wall around S≈10⁴. This backend keeps the *protocol* (the same
Fig. 5/Fig. 7 code in :mod:`repro.core.dissemination` runs unchanged) but
replaces the per-process state with:

* **one pid block per group** — pids are contiguous, so membership lives
  in :class:`~repro.membership.columnar.ColumnarGroupTables` pid arrays
  and a process is just an index;
* **one network actor per group** — a :class:`ColumnarGroupActor`
  registered via :meth:`~repro.net.network.Network.register_block`
  receives whole delivery batches (``handle_batch``) and walks them with
  index arithmetic;
* **one flyweight peer per group** — rebound to the acting member before
  each ``disseminate`` call, so the protocol code sees the pid-level
  :class:`~repro.core.dissemination.DisseminationPeer` contract without
  a peer object per process (or a descriptor object per target);
* **per-event seen bitmasks** — Fig. 5's first-reception dedup as one
  ``bytearray(S)`` per in-flight event per group instead of a Python set
  of event-id tuples per process.

Construction is the object backend's: both hosts draw their tables with
the same builder (:func:`~repro.membership.columnar.draw_static_tables`)
from the same ``"static-membership"`` stream, and both digest them with
the same :func:`~repro.membership.columnar.rows_digest` — pinned by the
S=500 golden. The object backend seats each process at its row; this one
keeps the columns and a block actor per group. *Runtime* draws use
per-group streams (``group/<topic>``): one Mersenne state per group
instead of ~2.5 KB per process, statistically equivalent gossip, not
trajectory-gated against the object backend — the runtime trajectory is
pinned by its own golden (tests/test_core_columnar.py).
"""

from __future__ import annotations

import random
from typing import Any, Iterator

from repro.core.dissemination import disseminate, should_deliver
from repro.core.events import Event, EventId
from repro.core.params import DaMulticastConfig, TopicParams
from repro.errors import ConfigError, ProtocolError, UnknownTopic
from repro.membership.columnar import (
    ColumnarGroupTables,
    draw_static_tables,
    rows_digest,
)
from repro.net.latency import LatencyModel, ZERO_LATENCY
from repro.net.message import EventMessage, Message, Scope
from repro.failures.model import FailureModel
from repro.runtime import SimulationHarness, SystemFacade
from repro.topics.topic import Topic


class _MemberPeer:
    """The flyweight :class:`DisseminationPeer`: one instance per group,
    rebound to the acting member per dissemination.

    Everything that depends only on the (static) group — ``fanout(S)``,
    ``p_sel(S)``, ``p_a``, the intra scope — is computed once here, and
    both selections return ints straight off the pid columns.
    """

    __slots__ = (
        "pid", "topic", "intra_scope",
        "_tables", "_index", "_rng", "_fanout", "_p_sel", "_p_a", "_network",
    )

    def __init__(
        self,
        tables: ColumnarGroupTables,
        params: TopicParams,
        network,
        rng: random.Random,
    ):
        self.pid = tables.members[0]
        self.topic = tables.topic
        self.intra_scope = Scope("intra", tables.topic)
        self._tables = tables
        self._index = 0
        self._rng = rng
        self._fanout = params.fanout(tables.size)
        self._p_sel = params.p_sel(tables.size)
        self._p_a = params.p_a
        self._network = network

    def bind(self, index: int) -> None:
        self._index = index
        self.pid = self._tables.members[index]

    def link_targets(
        self, force_link: bool
    ) -> tuple[tuple[Topic, list[int]], ...]:
        return self._tables.link_targets(
            self._index, self._p_sel, self._p_a, self._rng, force_link
        )

    def gossip_targets(self) -> list[int]:
        # The member's own pid is never in its row (exclusion is built
        # into construction), so there is nothing to filter.
        return self._tables.sample_row(self._index, self._fanout, self._rng)

    def multicast(self, targets, message: Message) -> None:
        self._network.multicast(self.pid, targets, message)


class ColumnarGroupActor:
    """One block actor running Fig. 5's RECEIVE for a whole group."""

    __slots__ = ("topic", "tables", "base", "engine", "tracker", "_peer", "_seen")

    def __init__(
        self,
        tables: ColumnarGroupTables,
        params: TopicParams,
        engine,
        network,
        rng: random.Random,
        tracker,
    ):
        self.topic = tables.topic
        self.tables = tables
        #: the group is one pid block: member index = pid - base
        self.base = tables.members[0]
        self.engine = engine
        self.tracker = tracker
        self._peer = _MemberPeer(tables, params, network, rng)
        #: event_id -> seen bitmask (1 byte per member, per in-flight event)
        self._seen: dict[EventId, bytearray] = {}

    # ------------------------------------------------------------------
    # Network entry point
    # ------------------------------------------------------------------
    def handle_batch(self, sender: int, targets, message: Message) -> None:
        """Deliver one message to every target index of this group."""
        if not isinstance(message, EventMessage):
            raise ProtocolError(
                f"columnar group {self.topic.name} cannot handle "
                f"{type(message).__name__}"
            )
        event = message.event
        mask = self._seen.get(event.event_id)
        if mask is None:
            # Property 4 (no parasite messages), asserted once per event
            # and group, by the first batch to bring it (the publisher's
            # group makes its mask in publish_from): every target shares
            # this group's topic, and every later batch the same event.
            if not should_deliver(event, self.topic):
                raise ProtocolError(
                    f"parasite delivery: group {self.topic.name} got event "
                    f"of {event.topic.name}"
                )
            mask = self._seen[event.event_id] = bytearray(self.tables.size)
        base = self.base
        hops = message.hops
        now = self.engine.now
        tracker = self.tracker
        peer = self._peer
        for pid in targets:
            index = pid - base
            if mask[index]:
                continue  # Fig. 5: later copies are ignored
            mask[index] = 1
            if tracker is not None:
                tracker.record_delivery(pid, event, now, hops=hops)
            peer._index = index  # peer.bind(index), without its frame
            peer.pid = pid
            disseminate(peer, event, arrival_hops=hops)

    # ------------------------------------------------------------------
    # Publishing (driven by the system facade)
    # ------------------------------------------------------------------
    def publish_from(
        self, index: int, event: Event, *, force_link: bool
    ) -> None:
        """Fig. 7 lines 1-2 for the member at ``index``: deliver locally,
        then disseminate (the publisher has already been recorded)."""
        mask = self._seen.get(event.event_id)
        if mask is None:
            mask = self._seen[event.event_id] = bytearray(self.tables.size)
        mask[index] = 1
        if self.tracker is not None:
            self.tracker.record_delivery(
                self.base + index, event, self.engine.now, hops=0
            )
        peer = self._peer
        peer.bind(index)
        disseminate(peer, event, force_link=force_link)

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def seen_count(self, event_id: EventId) -> int:
        """How many group members have seen ``event_id``."""
        mask = self._seen.get(event_id)
        return sum(mask) if mask is not None else 0

    def release_event_state(self, event_id: EventId) -> None:
        """Drop the seen bitmask of a finished event (dedup state is only
        needed while copies are still in flight)."""
        self._seen.pop(event_id, None)

    def clear_event_state(self) -> None:
        """Drop every seen bitmask (e.g. between measurement rounds)."""
        self._seen.clear()

    def membership_bytes(self) -> int:
        """Bytes of frozen membership state for the whole group."""
        return self.tables.nbytes()

    def __repr__(self) -> str:
        return (
            f"ColumnarGroupActor({self.topic.name}, S={self.tables.size}, "
            f"in_flight={len(self._seen)})"
        )


class ColumnarStaticSystem(SystemFacade):
    """The paper's static-mode simulator over columnar group state.

    API mirrors the static subset of :class:`DaMulticastSystem`
    (``add_group`` / ``finalize_static_membership`` / ``publish`` /
    ``run_until_idle`` / ``construction_digest``), with two scale-driven
    differences: each topic gets exactly one contiguous pid block (one
    ``add_group`` call per topic), and the delivery tracker defaults to
    the O(topics) streaming mode.
    """

    def __init__(
        self,
        *,
        config: DaMulticastConfig | None = None,
        seed: int = 0,
        p_success: float = 1.0,
        latency: LatencyModel = ZERO_LATENCY,
        failure_model: FailureModel | None = None,
        tracker: str = "streaming",
    ):
        self.config = config or DaMulticastConfig()
        super().__init__(
            SimulationHarness(
                seed=seed,
                p_success=p_success,
                latency=latency,
                failure_model=failure_model,
                tracker=tracker,
            )
        )
        self._blocks: dict[Topic, range] = {}
        self._actors: dict[Topic, ColumnarGroupActor] = {}
        #: lazily cached alive pids per topic (static failure models are
        #: time-invariant in this mode, matching the §VII setting)
        self._alive_cache: dict[Topic, list[int]] = {}
        self._publish_seq: dict[int, int] = {}

    def _release(self) -> None:
        self._blocks.clear()
        self._actors.clear()
        self._alive_cache.clear()

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_group(self, topic: Topic | str, count: int) -> range:
        """Reserve one contiguous pid block of ``count`` processes for
        ``topic``; returns the pid range. One call per topic."""
        self.harness.require_open()
        if self._finalized:
            raise ConfigError("membership already finalized")
        resolved = self.hierarchy.add(topic)
        if resolved in self._blocks:
            raise ConfigError(
                f"columnar backend: group {resolved.name} already added "
                "(one contiguous pid block per topic)"
            )
        block = self.harness.reserve_pid_block(count)
        self._blocks[resolved] = block
        return block

    def finalize_static_membership(self) -> None:
        """Draw all membership columns once, from global knowledge.

        The object backend's build — same builder, RNG stream, group order
        and per-member draw interleaving — over pid blocks; the S=500
        construction-digest golden pins the equality.
        """
        rng = self._membership_rng()
        if self._finalized:
            raise ConfigError("membership already finalized")
        if not self._blocks:
            raise ConfigError("no groups added")
        drawn = draw_static_tables(self._blocks, self.config.params_for, rng)
        for topic, block in self._blocks.items():
            actor = ColumnarGroupActor(
                drawn[topic],
                self.config.params_for(topic),
                self.engine,
                self.network,
                self.harness.rngs.stream(f"group/{topic.name}"),
                self.tracker,
            )
            self.network.register_block(actor, block.start, block.stop)
            self._actors[topic] = actor
        self._finalized = True

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        topic: Topic | str,
        payload: Any = None,
        *,
        publisher_pid: int | None = None,
    ) -> Event:
        """Publish one event on ``topic`` from an alive group member
        (uniformly chosen when ``publisher_pid`` is not given)."""
        self._require_finalized()
        resolved = Topic.parse(topic) if isinstance(topic, str) else topic
        block = self._blocks.get(resolved)
        if block is None:
            raise UnknownTopic(f"no group for topic {resolved.name}")
        if publisher_pid is None:
            publisher_pid = self._elect_publisher(
                resolved, self._alive_pids(resolved)
            )
        elif publisher_pid not in block:
            raise ConfigError(
                f"pid {publisher_pid} is not a member of {resolved.name}"
            )
        sequence = self._publish_seq.get(publisher_pid, 0) + 1
        self._publish_seq[publisher_pid] = sequence
        event = Event(
            event_id=EventId(publisher_pid, sequence),
            topic=resolved,
            payload=payload,
            published_at=self.now,
        )
        if self.tracker is not None:
            # Intended receivers over a perfect network: the topic's own
            # block plus every populated ancestor block (inclusion).
            expected = sum(
                len(members)
                for t, members in self._blocks.items()
                if t.includes(resolved)
            )
            self.tracker.record_publish(
                event, publisher_pid, expected=expected
            )
        self._actors[resolved].publish_from(
            publisher_pid - block.start,
            event,
            force_link=self.config.publisher_always_links,
        )
        return event

    def _alive_pids(self, topic: Topic) -> list[int]:
        alive = self._alive_cache.get(topic)
        if alive is None:
            is_alive = self.harness.is_alive
            alive = self._alive_cache[topic] = [
                pid for pid in self._blocks[topic] if is_alive(pid)
            ]
        return alive

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def topics(self) -> list[Topic]:
        """All topics with a group, in pid-block order."""
        return list(self._blocks)

    def group_pids(self, topic: Topic | str) -> list[int]:
        """The pid block of ``topic``'s group."""
        resolved = Topic.parse(topic) if isinstance(topic, str) else topic
        block = self._blocks.get(resolved)
        return list(block) if block is not None else []

    def group_actor(self, topic: Topic | str) -> ColumnarGroupActor:
        """The block actor running ``topic``'s group."""
        resolved = Topic.parse(topic) if isinstance(topic, str) else topic
        try:
            return self._actors[resolved]
        except KeyError:
            raise UnknownTopic(f"no group for topic {resolved.name}") from None

    def seen_fraction(self, event: Event, topic: Topic | str) -> float:
        """Fraction of ``topic``'s group that received ``event`` (off the
        group's seen bitmask — works with the streaming tracker)."""
        resolved = Topic.parse(topic) if isinstance(topic, str) else topic
        actor = self.group_actor(resolved)
        size = actor.tables.size
        return actor.seen_count(event.event_id) / size if size else 1.0

    def membership_bytes(self) -> int:
        """Total frozen membership bytes across every group's columns."""
        return sum(a.membership_bytes() for a in self._actors.values())

    def processes(self) -> Iterator[int]:
        """Every pid, ascending (blocks are allocated in group order)."""
        # repro-lint: allow[DET003]: blocks are allocated in ascending-pid group order, so insertion order IS the documented order
        for block in self._blocks.values():
            yield from block

    def construction_digest(self) -> str:
        """SHA-256 over every member's table rows, in pid order — the one
        digest both backends share (:func:`~repro.membership.columnar.
        rows_digest`), pinned by the S=500 golden in
        tests/test_golden_static.py."""
        if not self._finalized:
            raise ConfigError("finalize_static_membership() first")
        return rows_digest(
            (actor.tables, row)
            for actor in self._actors.values()
            for row in range(actor.tables.size)
        )

    def __repr__(self) -> str:
        total = sum(len(block) for block in self._blocks.values())
        return (
            f"ColumnarStaticSystem(processes={total}, "
            f"groups={len(self._blocks)}, finalized={self._finalized})"
        )
