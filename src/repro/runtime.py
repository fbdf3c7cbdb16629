"""Shared simulation harness and the system facade built on it.

Both :class:`repro.core.system.DaMulticastSystem` and the baseline systems
need the same substrate wiring — a deterministic clock, named RNG streams,
an unreliable network with statistics and a delivery tracker.
Centralizing it keeps every protocol measured under identical
conditions, which the paper's comparison explicitly requires ("for
fairness, all approaches use the same underlying membership algorithm" —
and, here, the same network and failure substrate too).

What a system *is besides its protocol* lives here as well, once:
:class:`ObjectSystemFacade` under every system class — harness
passthroughs, the topic → member registry, its queries, ``close()`` and
the one publish path (publisher election, event ids, the
expected-receiver count) — and the one static build every static system
shares: pid-block member records (:class:`StaticMember`) and the
finalize that lays the block actors out and fixes the membership.
daMulticast and the four baselines differ only in the tables they draw
and the actors that flood over them.

The harness is time-source-agnostic: by default it builds a discrete-event
:class:`~repro.sim.engine.Engine` (the virtual-time oracle every golden
test replays against), but another time source — the live runtime's
wall-clock :class:`~repro.service.clock.AsyncClock`, which only reads
``now`` — can be injected together with a delivery queue
(:class:`~repro.net.transport.QueueTransport`) that executes the
deliveries. The protocol core above never notices the difference.
"""

from __future__ import annotations

import itertools
import weakref
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.events import Event, EventId
from repro.errors import ConfigError, UnknownTopic
from repro.failures.model import FailureModel
from repro.metrics.collector import DeliveryTracker
from repro.metrics.delivery import delivered_fraction
from repro.net.latency import LatencyModel, ZERO_LATENCY
from repro.net.network import Network
from repro.net.transport import QueueTransport
from repro.sim.clock import Clock
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.topics.hierarchy import TopicHierarchy
from repro.topics.topic import Topic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.streaming import StreamingDeliveryTracker


class SimulationHarness:
    """Clock + RNG registry + network + metrics, wired deterministically."""

    def __init__(
        self,
        *,
        seed: int = 0,
        p_success: float = 1.0,
        latency: LatencyModel = ZERO_LATENCY,
        failure_model: FailureModel | None = None,
        tracker: str | DeliveryTracker | StreamingDeliveryTracker = "full",
        clock: Clock | None = None,
        transport: QueueTransport | None = None,
    ):
        if isinstance(tracker, str) and tracker not in ("full", "streaming"):
            raise ConfigError(
                f"tracker must be 'full' or 'streaming', got {tracker!r}"
            )
        #: the time source; a fresh discrete-event Engine unless injected
        self.clock: Clock = Engine() if clock is None else clock
        #: historical name for the clock — every existing call site reads
        #: ``harness.engine``, and when the clock *is* an Engine the name
        #: is also accurate
        self.engine = self.clock
        self.rngs = RngRegistry(seed)
        self.network = Network(
            self.clock,
            self.rngs.stream("network"),
            p_success=p_success,
            latency=latency,
            failure_model=failure_model,
            transport=transport,
        )
        #: the injected delivery transport; None when the engine is its own
        self._transport = transport
        self.stats = self.network.stats
        #: ``tracker="full"`` keeps per-(event, pid) records (the figures'
        #: raw material); ``"streaming"`` folds deliveries into O(topics)
        #: per-topic aggregates for 10⁵–10⁶-process runs. A pre-built
        #: tracker instance is adopted as-is.
        if not isinstance(tracker, str):
            self.tracker = tracker
        elif tracker == "streaming":
            from repro.metrics.streaming import StreamingDeliveryTracker

            self.tracker = StreamingDeliveryTracker()
        else:
            self.tracker = DeliveryTracker()
        self._pid_counter = itertools.count(0)
        #: set by :meth:`close`; the system facades refuse to build on or
        #: publish into a closed harness
        self.closed = False

    def close(self) -> None:
        """Let go of every actor and every call still queued, on the engine
        and on an injected delivery queue (idempotent).

        The system facades call this from their own ``close()`` after
        dropping their process/group registries. Clock, RNG streams,
        statistics and tracker stay readable; nothing can be delivered
        any more, and no timer pending at the horizon runs (or keeps
        what it captured) on a later ``run``, nor a delivery on a later
        ``pump``.
        """
        self.network.close()
        if isinstance(self.clock, Engine):
            self.clock.cancel_all()
        if self._transport is not None:
            self._transport.cancel_all()
        self.closed = True

    def require_open(self) -> None:
        """Raise :class:`ConfigError` once :meth:`close` was called."""
        if self.closed:
            raise ConfigError("the system is closed")

    def next_pid(self) -> int:
        """Allocate the next process id."""
        return next(self._pid_counter)

    def reserve_pid_block(self, count: int) -> range:
        """Allocate ``count`` consecutive process ids, returned as a range.

        A static group is one contiguous pid block, so its block actor
        indexes members by arithmetic; reservation goes through the same
        counter as :meth:`next_pid`, so no two systems on one harness
        share a pid (a dynamic one refuses a join past another's pids).
        """
        if count < 1:
            raise ConfigError(f"count must be >= 1, got {count}")
        base = next(self._pid_counter)
        for _ in range(count - 1):
            next(self._pid_counter)
        return range(base, base + count)

    @property
    def now(self) -> float:
        """Current time (virtual or wall-clock, depending on the clock)."""
        return self.clock.now

    def _drivable(self) -> Engine:
        """The clock as a drivable engine (virtual time only).

        A wall-clock :class:`~repro.service.clock.AsyncClock` advances by
        itself — ``run()`` is meaningless there and the live runtime's
        pump loop takes its place.
        """
        runner = self.clock
        if not hasattr(runner, "run"):
            raise ConfigError(
                f"{type(runner).__name__} cannot be driven with run(); "
                "only a discrete-event Engine clock supports it"
            )
        return runner

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Drive the engine (see :meth:`repro.sim.engine.Engine.run`)."""
        return self._drivable().run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run to quiescence."""
        return self._drivable().run_until_idle(max_events=max_events)

    def is_alive(self, pid: int) -> bool:
        """Ground-truth liveness of ``pid`` now."""
        return self.network.is_alive(pid)


class ActorRegistry(dict):
    """A system's topic → block actor registry: a dict its member records
    can hold weakly."""

    __slots__ = ("__weakref__",)


class StaticMember:
    """A member of a static system, as the system hands it out.

    Its tables are rows of the columns the finalize draws and its flood
    state is the block actor's that its pid is registered to, so a member
    is its pid and topic, plus a read of what its tables cost.

    ``actors`` is a weak reference to the system's :class:`ActorRegistry`:
    a block actor holds its members, so a strong one would tie every
    static build into a cycle. A member read after its system was closed
    or dropped sees no actor, as before the finalize.
    """

    __slots__ = ("pid", "topic", "_actors")

    def __init__(self, pid: int, topic: Topic, actors: weakref.ref[ActorRegistry]):
        self.pid = pid
        self.topic = topic
        self._actors = actors

    @property
    def memory_footprint(self) -> int:
        """Membership entries across all this member's tables (§VI-C,
        §VI-E.2 measured); 0 before the finalize draws them."""
        actor = self._actor()
        return 0 if actor is None else actor.memory_footprint(self.pid)

    @property
    def table_count(self) -> int:
        """How many membership tables this member holds; 0 before the
        finalize draws them."""
        actor = self._actor()
        return 0 if actor is None else actor.table_count(self.pid)

    def _actor(self):
        """The block actor this member's pid is registered to, or None."""
        actors = self._actors()
        return None if actors is None else actors.get(self.topic)


class ObjectSystemFacade:
    """What every system is besides its protocol, on one harness, and the
    one static build.

    The registry — topic → group list, pid → member — every query answered
    from it, ``close()``, which lets go of it, and the one publish path.
    The static build's rules live here once:

    * **members** are :class:`StaticMember` records over pid blocks: a
      group is one contiguous block, so consecutive ``add_process`` /
      ``add_group`` calls for a topic extend it and adding to a topic after
      another topic's members is a :class:`ConfigError`;
    * **the finalize** (:meth:`finalize_static_membership`) draws every
      table once, from the ``"static-membership"`` stream, and registers
      the block actors through the subclass's ``_lay_out(rng)``. It is the
      last change: an add, a link or a second finalize afterwards is a
      :class:`ConfigError`, and so is a finalize with no member; a
      publish before it is one too.

    **Publish**, for every system, elects an alive member of the topic's
    group (or checks that a given publisher is this system's member of
    it), mints the event id ``(pid, n)`` for the publisher's ``n``-th
    event, records the publication with :meth:`_expected_receivers` and
    hands the event to the subclass's ``_inject(pid, event)``.

    The dynamic daMulticast protocol (``DaMulticastSystem(mode="dynamic")``)
    keeps its own members and joins, never finalizes, and publishes
    through the same path. :meth:`link` is refused unless the subclass's
    build honours §VIII's extra supertopics.
    """

    #: whether the build draws a table per linked supertopic (§VIII)
    _honours_links = False
    #: whether :meth:`publish` waits for :meth:`finalize_static_membership`
    _finalize_before_publish = True

    def __init__(self, harness: SimulationHarness):
        self.harness = harness
        #: every topic a member was added for (and its supertopics)
        self.hierarchy = TopicHierarchy()
        #: set by the finalize, after which membership never changes
        self._finalized = False
        self._groups: dict[Topic, list] = {}
        self._processes: dict[int, Any] = {}
        #: pid → member, a live read-only view: what is asked per
        #: transmission (link classifiers) looks a pid up with its ``get``,
        #: which costs no frame and answers None for a pid that has not
        #: joined yet where :meth:`process` raises
        self.process_by_pid: Mapping[int, Any] = MappingProxyType(
            self._processes
        )
        #: topic → the block actor the finalize registered its members to
        self._actors: dict[Topic, Any] = ActorRegistry()
        #: topic → (failure model, its alive members), kept only after the
        #: finalize and for a model that declares ``static_dead``
        self._alive_cache: dict[Topic, tuple[FailureModel, list]] = {}
        #: pid → events it published so far
        self._publish_seq: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Harness passthroughs
    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The discrete-event engine."""
        return self.harness.engine

    @property
    def network(self):
        """The unreliable network."""
        return self.harness.network

    @property
    def stats(self):
        """Network statistics (message counts per kind/group)."""
        return self.harness.stats

    @property
    def tracker(self):
        """The delivery tracker (who received which event)."""
        return self.harness.tracker

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.harness.now

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Advance the simulation (see :meth:`repro.sim.engine.Engine.run`)."""
        return self.harness.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 100_000_000) -> int:
        """Run to quiescence (static membership; dynamic mode never idles).

        The guard leaves room for an S = 10⁶ columnar flood, which counts
        more than 10⁷ deliveries.
        """
        return self.harness.run_until_idle(max_events=max_events)

    def link(self, topic: Topic | str, extra_parent: Topic | str) -> None:
        """Give ``topic`` the further direct supertopic ``extra_parent``
        (§VIII, multiple inheritance), once both are registered.

        The finalize draws a supertopic table per direct supertopic and
        inclusion follows the links, so a link is a change of membership:
        it goes through :meth:`_touch`, and the static build, fixed by its
        finalize, refuses one afterwards. A system whose build cannot
        honour a link — the dynamic protocol, whose Fig. 4 bootstrap
        climbs dotted parents only, and the baselines — refuses it with
        :class:`ConfigError`.
        """
        if not self._honours_links:
            raise ConfigError(
                f"{type(self).__name__} cannot honour a link: only the "
                "static daMulticast build draws a table per supertopic"
            )
        self._touch(topic)
        self.hierarchy.link(topic, extra_parent)

    def close(self) -> None:
        """Release every member and block actor of a finished system
        (idempotent).

        Drops the member and actor registries and the network's actors.
        Freeing a static system does not wait for it: its actors hold
        their network and its members their actor registry weakly, so it
        goes by reference count as soon as the caller lets go of it. The
        engine's queue is emptied, so timers pending at the horizon no
        longer hold a dynamic system's processes; the processes are still
        left to the cycle collector, as they hold their network and bound
        methods of their own.
        Statistics, tracker, clock and RNG streams stay readable; member
        queries see an empty system, and adding, finalizing or publishing
        raises :class:`ConfigError`.
        """
        self._processes.clear()
        self._groups.clear()
        self._actors.clear()
        self._alive_cache.clear()
        self.harness.close()

    # ------------------------------------------------------------------
    # Population and the finalize
    # ------------------------------------------------------------------
    def add_process(self, topic: Topic | str, **options: Any):
        """Create one process interested in ``topic`` and wire it up
        (``options`` are the keywords of the subclass's ``_add_members``)."""
        return self.add_group(topic, 1, **options)[0]

    def add_group(self, topic: Topic | str, count: int, **options: Any) -> list:
        """Create ``count`` processes interested in ``topic``; they join
        one after the other exactly as ``count`` :meth:`add_process`
        calls would make them (same pids, same draws)."""
        if count < 1:
            raise ConfigError(f"count must be >= 1, got {count}")
        self._touch(topic)
        return self._add_members(self.hierarchy.add(topic), count, **options)

    def _touch(self, topic: Topic | str) -> None:
        """Membership of ``topic`` is about to change: refused once the
        finalize laid the block actors out."""
        self.harness.require_open()
        if self._finalized:
            name = topic if isinstance(topic, str) else topic.name
            raise ConfigError(
                f"cannot change {name}: finalize_static_membership() fixed "
                "the static membership"
            )

    def _add_members(self, topic: Topic, count: int) -> list[StaticMember]:
        """Extend ``topic``'s pid block by ``count`` member records.

        A group is one contiguous pid block, so its members are added in
        one run of calls: adding to a topic after another topic's members
        is refused.
        """
        groups = self._groups
        if topic in groups and topic is not next(reversed(groups)):
            raise ConfigError(
                f"static group {topic.name} is one contiguous pid block: "
                "add all its members before another topic's"
            )
        block = self.harness.reserve_pid_block(count)
        actors = weakref.ref(self._actors)
        members = [StaticMember(pid, topic, actors) for pid in block]
        groups.setdefault(topic, []).extend(members)
        self._processes.update(zip(block, members))
        return members

    def finalize_static_membership(self) -> None:
        """Draw every membership table once, from global knowledge, and
        register the block actors that flood over them (the subclass's
        ``_lay_out(rng)``) — the paper's §VII setting: tables never change
        afterwards, and neither do the groups."""
        self.harness.require_open()
        if self._finalized:
            raise ConfigError("membership already finalized")
        if not self._groups:
            raise ConfigError("no groups added")
        self._lay_out(self.harness.rngs.stream("static-membership"))
        self._finalized = True

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        topic: Topic | str,
        payload: Any = None,
        *,
        publisher: Any = None,
    ) -> Event:
        """Publish an event on ``topic``.

        ``publisher`` defaults to a uniformly chosen *alive* member of the
        topic's group (the §VII setting publishes from an alive process);
        a given one must be this system's member of that group — a process
        publishes events of its own topic only. An unregistered topic is
        :class:`~repro.errors.UnknownTopic`.
        """
        self.harness.require_open()
        if self._finalize_before_publish and not self._finalized:
            raise ConfigError(
                "call finalize_static_membership() before publishing: the "
                "membership tables are not drawn yet"
            )
        resolved = self.hierarchy.require(
            Topic.parse(topic) if isinstance(topic, str) else topic
        )
        pid = self._publisher(resolved, publisher).pid
        sequence = self._publish_seq[pid] = self._publish_seq.get(pid, 0) + 1
        event = Event(
            event_id=EventId(pid, sequence),
            topic=resolved,
            payload=payload,
            published_at=self.now,
        )
        self.tracker.record_publish(
            event, pid, expected=self._expected_receivers(resolved)
        )
        self._inject(pid, event)
        return event

    def _publisher(self, topic: Topic, publisher):
        """``publisher``, once checked to be this system's member of
        ``topic``'s group; else a uniformly chosen alive member."""
        if publisher is None:
            return self.harness.rngs.stream("publish").choice(
                self.alive_members(topic)
            )
        if self._processes.get(publisher.pid) is not publisher:
            raise ConfigError(
                f"process {publisher.pid} is not a member of this system"
            )
        if publisher.topic != topic:
            raise ConfigError(
                f"process {publisher.pid} publishes {publisher.topic.name} "
                f"events, not {topic.name}"
            )
        return publisher

    def alive_members(self, topic: Topic) -> list:
        """``topic``'s members alive now, in group order, which a publisher
        is elected from: computed per publish unless the membership is
        fixed and the installed failure model declares a fixed dead set.
        A group with no alive member is :class:`~repro.errors.UnknownTopic`.
        """
        model = self.network.failure_model
        cached = self._alive_cache.get(topic)
        if cached is not None and cached[0] is model:
            return cached[1]
        is_alive = self.harness.is_alive
        alive = [
            member for member in self._groups.get(topic, ())
            if is_alive(member.pid)
        ]
        if not alive:
            raise UnknownTopic(
                f"no alive process interested in {topic.name} to publish from"
            )
        if self._finalized and getattr(model, "static_dead", None) is not None:
            self._alive_cache[topic] = (model, alive)
        return alive

    def _expected_receivers(self, topic: Topic) -> int:
        """The intended receivers of a ``topic`` event over a perfect
        network: every process whose subscription *includes* it — its own
        group plus every supergroup (inclusion, §III-B, over the
        hierarchy's links too)."""
        includes = self.hierarchy.includes
        return sum(
            len(members)
            for t, members in self._groups.items()
            if includes(t, topic)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def processes(self) -> list:
        """All processes, in creation order (pids come from one counter,
        so the registry's insertion order is already ascending)."""
        return list(self._processes.values())

    def process(self, pid: int):
        """Process lookup by id."""
        try:
            return self._processes[pid]
        except KeyError:
            raise UnknownTopic(f"no process with pid {pid}") from None

    def group(self, topic: Topic | str) -> list:
        """All processes interested in exactly ``topic``."""
        resolved = Topic.parse(topic) if isinstance(topic, str) else topic
        return list(self._groups.get(resolved, ()))

    def group_pids(self, topic: Topic | str) -> list[int]:
        """Pids of :meth:`group`."""
        return [p.pid for p in self.group(topic)]

    def topics(self) -> list[Topic]:
        """All topics with at least one interested process."""
        return sorted(self._groups)

    def interests(self) -> dict[int, Topic]:
        """pid → subscribed topic, for parasite accounting."""
        return {
            p.pid: topic
            for topic, members in self._groups.items()
            for p in members
        }

    def delivered_fraction(
        self,
        event: Event,
        topic: Topic | str,
        *,
        alive_only: bool = True,
    ) -> float:
        """Figs. 10/11 quantity: fraction of the group that delivered."""
        pids = self.group_pids(topic)
        is_alive = self.harness.is_alive if alive_only else (lambda pid: True)
        return delivered_fraction(self.tracker, event.event_id, pids, is_alive)
