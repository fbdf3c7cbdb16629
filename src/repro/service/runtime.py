"""The live pub/sub runtime: da-multicast served on wall-clock asyncio.

:class:`LiveRuntime` wires the protocol core to the live side of both
seams — an :class:`~repro.service.clock.AsyncClock` as the
:class:`~repro.sim.clock.Clock` and a
:class:`~repro.net.transport.QueueTransport` pumped by an asyncio task as
the delivery :class:`~repro.net.transport.Transport` — and exposes:

* ``subscribe(topic, callback)`` — callback fires on every event
  delivered at a process of that topic;
* ``await publish(topic, payload)`` — publishes from a uniformly chosen
  group member and waits for the dissemination cascade to drain;
* ``status()`` — per-topic delivery counts (via the streaming tracker),
  :class:`~repro.net.stats.NetworkStats`, queue depth, subscriber
  callback failures and scheduler lag (the wall-clock analogue of
  engine-vs-wall drift);
* ``trace()`` — a JSON-serializable record of the run that
  :func:`repro.service.replay.replay_live_trace` re-executes on the
  deterministic engine, reproducing the same per-topic delivery sets.

Determinism contract (what makes the trace replayable): the runtime
draws every live-only decision — which member publishes — from its own
dedicated ``"live/publish"`` RNG stream, never from the streams the
protocol core consumes. Replay pins the recorded publishers instead of
re-drawing, so both executions make *identical* draws on every shared
stream; and because ``publish`` drains the cascade before returning,
live delivery order matches the engine's ``(time, seq)`` order publish
by publish.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.core.params import DaMulticastConfig
from repro.core.events import Event, EventId
from repro.core.system import DaMulticastSystem
from repro.errors import ConfigError
from repro.metrics.streaming import StreamingDeliveryTracker
from repro.net.latency import LatencyModel, ZERO_LATENCY
from repro.net.transport import QueueTransport
from repro.runtime import SimulationHarness, StaticMember
from repro.service.clock import AsyncClock
from repro.topics.topic import Topic

SubscribeCallback = Callable[[Event, int], Any]

TRACE_VERSION = 1


class LiveRuntime:
    """A da-multicast system served live on an asyncio event loop."""

    def __init__(
        self,
        *,
        seed: int = 0,
        config: DaMulticastConfig | None = None,
        p_success: float = 1.0,
        latency: LatencyModel = ZERO_LATENCY,
    ):
        self.seed = seed
        self.clock = AsyncClock()
        self.transport = QueueTransport(self.clock, on_enqueue=self._on_enqueue)
        self.harness = SimulationHarness(
            seed=seed,
            p_success=p_success,
            latency=latency,
            clock=self.clock,
            transport=self.transport,
            tracker=StreamingDeliveryTracker(),
        )
        self.system = DaMulticastSystem(
            config=config,
            mode="static",
            harness=self.harness,
            delivery_callback=self._on_delivery,
        )
        #: live-only draws come from this dedicated stream so the shared
        #: protocol streams see exactly the draws a replay makes
        self._publish_rng = self.harness.rngs.stream("live/publish")
        self._subscribers: dict[Topic, list[SubscribeCallback]] = {}
        self._topics: list[tuple[str, int]] = []
        self._publishes: list[dict[str, Any]] = []
        self._deliveries: dict[EventId, list[int]] = {}
        self._p_success = p_success
        self._wake: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._pump_task: asyncio.Task | None = None
        self._max_lag = 0.0
        self._last_lag = 0.0
        self._subscriber_errors = 0
        self._finalized = False

    # ------------------------------------------------------------------
    # Topology (record construction order — the replay re-runs it)
    # ------------------------------------------------------------------
    def add_group(self, topic: str, count: int) -> list[StaticMember]:
        """Create ``count`` processes interested in ``topic`` (a group is
        one pid block: all of a topic's members come in one run of calls)."""
        if self._pump_task is not None:
            raise ConfigError("the topology is fixed once the runtime is started")
        processes = self.system.add_group(topic, count)
        self._topics.append((topic, count))
        return processes

    def subscribe(self, topic: str, callback: SubscribeCallback) -> None:
        """Invoke ``callback(event, pid)`` on every event delivered at a
        process of ``topic`` (one call per delivering process)."""
        resolved = self.system.hierarchy.add(topic)
        self._subscribers.setdefault(resolved, []).append(callback)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Attach the clock to the running loop and start the pump task.

        Membership tables are finalized here (once) — mirroring the
        engine-backed setup sequence the replay performs.
        """
        if self._pump_task is not None:
            raise ConfigError("LiveRuntime is already started")
        self.clock.attach()
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        if not self._finalized:
            self.system.finalize_static_membership()
            self._finalized = True
        self._pump_task = asyncio.create_task(
            self._pump_loop(), name="repro-live-pump"
        )
        # A delivery that raises ends the pump task; wake whoever waits in
        # drain() so it re-raises instead of waiting for ever.
        self._pump_task.add_done_callback(lambda _task: self._idle.set())

    async def stop(self) -> None:
        """Stop the pump task."""
        task = self._pump_task
        self._pump_task = None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def __aenter__(self) -> "LiveRuntime":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    async def publish(self, topic: str, payload: Any = None) -> Event:
        """Publish on ``topic`` from a uniformly chosen alive member and
        wait for the dissemination cascade to drain.

        Draining before returning is what keeps the run replayable: each
        publish's cascade completes before the next begins, exactly like
        consecutive ``publish(); run_until_idle()`` steps on the engine.
        """
        if self._pump_task is None:
            raise ConfigError("LiveRuntime.publish requires start() first")
        resolved = Topic.parse(topic)
        publisher = self._publish_rng.choice(self.system.alive_members(resolved))
        event = self.system.publish(resolved, payload, publisher=publisher)
        self._publishes.append(
            {
                "topic": resolved.name,
                "payload": payload,
                "publisher": publisher.pid,
                "event": str(event.event_id),
            }
        )
        await self.drain()
        # the cascade is over, so no copy is in flight: the groups' dedup
        # state for this event goes
        system = self.system
        for group in system.topics():
            system.group_actor(group).release_event_state(event.event_id)
        return event

    async def drain(self) -> None:
        """Wait until the delivery queue is empty (cascade finished).

        If a delivery raised, the pump task died with it and nothing will
        empty the queue: that exception is re-raised here instead.
        """
        while self.transport.next_due() is not None:
            task = self._pump_task
            if task is not None and task.done():
                task.result()
            self._idle.clear()
            self._wake.set()
            await self._idle.wait()

    # ------------------------------------------------------------------
    # Delivery plumbing
    # ------------------------------------------------------------------
    def _on_enqueue(self) -> None:
        if self._wake is not None:
            self._wake.set()

    def _on_delivery(self, process: StaticMember, event: Event) -> None:
        self._deliveries.setdefault(event.event_id, []).append(process.pid)
        callbacks = self._subscribers.get(process.topic)
        if callbacks:
            for callback in list(callbacks):
                try:
                    callback(event, process.pid)
                except Exception:
                    # A subscriber's failure is its own: the delivery
                    # happened, and the cascade behind it must go on.
                    self._subscriber_errors += 1

    async def _pump_loop(self) -> None:
        transport = self.transport
        clock = self.clock
        wake = self._wake
        idle = self._idle
        while True:
            due = transport.next_due()
            if due is None:
                idle.set()
                await wake.wait()
                wake.clear()
                continue
            delay = due - clock.now
            if delay > 0:
                # Sleep until the earliest entry is due — or an enqueue
                # introduces an earlier one.
                wake.clear()
                try:
                    await asyncio.wait_for(wake.wait(), timeout=delay)
                except asyncio.TimeoutError:
                    pass
                continue
            self._last_lag = clock.now - due
            if self._last_lag > self._max_lag:
                self._max_lag = self._last_lag
            transport.pump()

    # ------------------------------------------------------------------
    # Status / trace surfaces
    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        """A point-in-time snapshot of the live service."""
        tracker = self.harness.tracker
        return {
            "now": self.clock.now,
            "running": self._pump_task is not None,
            "processes": len(self.system.processes),
            "published": len(self._publishes),
            "deliveries_by_topic": {
                topic.name: tracker.delivery_count_by_topic(topic)
                for topic in tracker.topics()
            },
            "queue": {
                "pending": self.transport.pending,
                "dispatched": self.transport.dispatched,
                "executed": self.transport.executed,
            },
            #: subscriber callbacks that raised (the delivery still counts)
            "subscriber_errors": self._subscriber_errors,
            "network": self.harness.stats.as_dict(),
            #: how late deliveries ran relative to their due time — the
            #: wall-clock analogue of engine-vs-wall drift
            "scheduler_lag": {"last": self._last_lag, "max": self._max_lag},
        }

    def trace(self) -> dict[str, Any]:
        """The replayable record of this run (JSON-serializable).

        Feed it to :func:`repro.service.replay.replay_live_trace` to
        re-execute the run on the deterministic engine and compare
        delivery sets.
        """
        return {
            "version": TRACE_VERSION,
            "seed": self.seed,
            "mode": "static",
            "p_success": self._p_success,
            "topics": [list(entry) for entry in self._topics],
            "publishes": [dict(record) for record in self._publishes],
            "deliveries": {
                str(event_id): sorted(pids)
                for event_id, pids in self._deliveries.items()
            },
        }
