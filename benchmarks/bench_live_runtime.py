"""Live-mode throughput bench: publishes/sec over the asyncio runtime.

Service mode (PR10) runs the protocol core on the wall-clock side of the
clock/transport seam — an asyncio pump task draining the in-process
:class:`~repro.net.transport.QueueTransport` instead of the engine heap.
This bench measures what that live path sustains:

* **live_publish_throughput** — N publishes through a started
  :class:`~repro.service.runtime.LiveRuntime` (publish → full cascade
  drain, the replay-safe discipline), reported as ``publishes_per_sec``
  and — from the per-destination delivery count the cascades produced —
  ``deliveries_per_sec`` (``extra_info["publishes"]`` /
  ``extra_info["deliveries"]``; a publish is not an engine event, so
  neither lands under ``events_per_sec``);
* **queue_transport_pump** — the same workload with the asyncio layer
  peeled off: the queue transport pumped synchronously on a virtual
  clock. The gap between the two rows is the event-loop tax
  (task switches, timer wheel, drain round-trips), isolating protocol
  cost from asyncio cost.
"""

import asyncio
import os

from repro.net.transport import QueueTransport
from repro.service.runtime import LiveRuntime

GROUP_S = int(os.environ.get("REPRO_LIVE_S", "60"))
SUPER_S = max(5, GROUP_S // 10)
PUBLISHES = int(os.environ.get("REPRO_LIVE_PUBLISHES", "50"))


def build_runtime(seed: int = 9) -> LiveRuntime:
    runtime = LiveRuntime(seed=seed)
    runtime.add_group(".t1", SUPER_S)
    runtime.add_group(".t1.t2", GROUP_S)
    return runtime


def test_live_publish_throughput(benchmark):
    """Publishes/sec through the full asyncio pump path."""

    def run_service() -> dict:
        async def scenario():
            runtime = build_runtime()
            async with runtime:
                for n in range(PUBLISHES):
                    await runtime.publish(".t1.t2", n)
                return runtime.status()

        return asyncio.run(scenario())

    status = benchmark.pedantic(run_service, rounds=2, iterations=1)
    benchmark.extra_info["publishes"] = PUBLISHES
    benchmark.extra_info["population"] = GROUP_S + SUPER_S
    benchmark.extra_info["deliveries"] = status["queue"]["executed"]
    benchmark.extra_info["scheduler_lag_max_ms"] = round(
        status["scheduler_lag"]["max"] * 1e3, 3
    )
    assert status["published"] == PUBLISHES
    assert status["queue"]["pending"] == 0


def test_queue_transport_pump(benchmark):
    """The same cascades with no event loop: synchronous pump baseline."""

    def run_sync() -> int:
        from repro.core.system import DaMulticastSystem
        from repro.runtime import SimulationHarness
        from repro.sim.engine import Engine

        engine = Engine()
        transport = QueueTransport(engine)
        harness = SimulationHarness(
            seed=9, clock=engine, transport=transport
        )
        system = DaMulticastSystem(mode="static", harness=harness)
        system.add_group(".t1", SUPER_S)
        system.add_group(".t1.t2", GROUP_S)
        system.finalize_static_membership()
        publish_rng = harness.rngs.stream("live/publish")
        for n in range(PUBLISHES):
            members = system.group(".t1.t2")
            system.publish(".t1.t2", n, publisher=publish_rng.choice(members))
            while transport.next_due() is not None:
                transport.pump(transport.next_due())
        return transport.executed

    executed = benchmark.pedantic(run_sync, rounds=2, iterations=1)
    benchmark.extra_info["publishes"] = PUBLISHES
    benchmark.extra_info["population"] = GROUP_S + SUPER_S
    benchmark.extra_info["deliveries"] = executed
    assert executed > PUBLISHES * GROUP_S  # cascades really fanned out
