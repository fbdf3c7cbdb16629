"""Shared simulation harness and the system facade built on it.

Both :class:`repro.core.system.DaMulticastSystem` and the baseline systems
need the same substrate wiring — a deterministic clock, named RNG streams,
an unreliable network with statistics and a delivery tracker.
Centralizing it keeps every protocol measured under identical
conditions, which the paper's comparison explicitly requires ("for
fairness, all approaches use the same underlying membership algorithm" —
and, here, the same network and failure substrate too).

What a system *is besides its protocol* lives here as well, once:
:class:`ObjectSystemFacade` (harness passthroughs, the
finalize-before-publish gate, the publisher election, the topic → member
registry, its queries and ``close()``) under every system class.

The harness is time-source-agnostic: by default it builds a discrete-event
:class:`~repro.sim.engine.Engine` (the virtual-time oracle every golden
test replays against), but another time source — the live runtime's
wall-clock :class:`~repro.service.clock.AsyncClock`, which only reads
``now`` — can be injected together with a matching delivery
:class:`~repro.net.transport.Transport`. The protocol core above never
notices the difference.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import ConfigError, UnknownTopic
from repro.failures.model import FailureModel
from repro.metrics.collector import DeliveryTracker
from repro.metrics.delivery import delivered_fraction
from repro.metrics.streaming import StreamingDeliveryTracker
from repro.net.latency import LatencyModel, ZERO_LATENCY
from repro.net.network import Network
from repro.net.transport import Transport
from repro.sim.clock import Clock
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.topics.hierarchy import TopicHierarchy
from repro.topics.topic import Topic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.events import Event


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
        transport: Transport | None = None,
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
        self.stats = self.network.stats
        #: ``tracker="full"`` keeps per-(event, pid) records (the figures'
        #: raw material); ``"streaming"`` folds deliveries into O(topics)
        #: per-topic aggregates for 10⁵–10⁶-process runs. A pre-built
        #: tracker instance is adopted as-is.
        if isinstance(tracker, str):
            self.tracker = (
                StreamingDeliveryTracker() if tracker == "streaming"
                else DeliveryTracker()
            )
        else:
            self.tracker = tracker
        self._pid_counter = itertools.count(0)
        #: set by :meth:`close`; the system facades refuse to build on or
        #: publish into a closed harness
        self.closed = False

    def close(self) -> None:
        """Let go of every actor (idempotent).

        The system facades call this from their own ``close()`` after
        dropping their process/group registries. Clock, RNG streams,
        statistics and tracker stay readable; nothing can be
        delivered any more.
        """
        self.network.close()
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

        A static daMulticast group is one contiguous pid block, so its
        block actor indexes members by arithmetic; reservation goes through
        the same counter as :meth:`next_pid`, so block and per-process
        allocation can be mixed without collisions.
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


class ObjectSystemFacade:
    """What every system is besides its protocol, on one harness.

    The registry — topic → group list, pid → member object — every query
    answered from it, and ``close()``, which lets go of it. A subclass
    provides ``_add_members(topic, count, **options)``, which creates the
    members and enters them into ``_groups`` / ``_processes`` (a member
    needs ``pid`` and ``topic`` only), starts its finalize with
    :meth:`_membership_rng` and ends it with ``self._finalized = True``.
    :meth:`_touch` runs before every change of membership (a subclass
    that cannot redraw overrides it to refuse once finalized), and
    :meth:`link` is refused unless the subclass's build honours §VIII's
    extra supertopics.
    """

    #: the method that draws the membership tables, named by the gate
    _finalize_verb = "finalize_static_membership"
    #: whether the build draws a table per linked supertopic (§VIII)
    _honours_links = False

    def __init__(self, harness: SimulationHarness):
        self.harness = harness
        #: every topic a member was added for (and its supertopics)
        self.hierarchy = TopicHierarchy()
        #: whether the tables cover every member added so far
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

    # ------------------------------------------------------------------
    # The finalize-before-publish gate and the publisher election
    # ------------------------------------------------------------------
    def _touch(self, topic: Topic | str) -> None:
        """Membership of ``topic`` is about to change: tables drawn before
        a newcomer know nothing of it (and the newcomer has none), so
        publishing waits for the next finalize."""
        self.harness.require_open()
        self._finalized = False

    def _membership_rng(self):
        """The stream every static table draw consumes."""
        self.harness.require_open()
        return self.harness.rngs.stream("static-membership")

    def _require_finalized(self) -> None:
        self.harness.require_open()
        if not self._finalized:
            raise ConfigError(
                f"call {self._finalize_verb}() before publishing: the "
                "membership tables do not cover every process yet"
            )

    def _elect_publisher(self, topic: Topic, alive):
        """A uniformly chosen member of ``alive`` — ``topic``'s alive
        members (the §VII setting publishes from an alive process)."""
        if not alive:
            raise UnknownTopic(
                f"no alive process interested in {topic.name} to publish from"
            )
        return self.harness.rngs.stream("publish").choice(alive)


    def close(self) -> None:
        """Release every member of a finished system (idempotent).

        Drops the member registries and the network's actors. Those
        registries are the only thing that ties a static system's
        processes into reference cycles, so after ``close()`` they are
        freed by reference count as soon as the caller lets go of the
        system — not whenever the cycle collector next runs. Statistics,
        tracker, clock and RNG streams stay readable; member queries see
        an empty system, and adding, finalizing or publishing raises
        :class:`ConfigError`.
        """
        self._processes.clear()
        self._groups.clear()
        self.harness.close()

    # ------------------------------------------------------------------
    # Population
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
        return self._add_members(self._admit(topic), count, **options)

    def _admit(self, topic: Topic | str) -> Topic:
        """Parse the topic of new members and register it (once per call,
        not per process)."""
        return self.hierarchy.add(topic)

    def _publisher(self, topic: Topic, publisher):
        """``publisher`` if given, else an elected alive member of
        ``topic``'s group."""
        if publisher is not None:
            return publisher
        is_alive = self.harness.is_alive
        return self._elect_publisher(
            topic, [p for p in self._groups.get(topic, ()) if is_alive(p.pid)]
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
