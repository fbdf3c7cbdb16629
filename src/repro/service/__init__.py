"""Live service mode: the protocol core on wall-clock asyncio time.

The same dissemination/membership code that runs under the deterministic
discrete-event :class:`~repro.sim.engine.Engine` runs here as a live
pub/sub service — the clock/transport seam is the only thing that changes:

* :class:`~repro.service.clock.AsyncClock` reads time off an asyncio
  event loop;
* deliveries flow through a :class:`~repro.net.transport.QueueTransport`
  pumped by an asyncio task instead of the engine heap;
* :class:`~repro.service.runtime.LiveRuntime` wraps it all in a
  ``subscribe(topic, callback)`` / ``await publish(topic, payload)`` API
  with a status/metrics surface.

The engine stays the test oracle: a live run records a trace, and
:func:`~repro.service.replay.replay_live_trace` re-executes it on virtual
time — producing the *same per-topic delivery sets*, which the golden
tests assert.
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "repro.service.clock": ("AsyncClock",),
        "repro.service.replay": ("delivery_sets_from_trace", "replay_live_trace"),
        "repro.service.runtime": ("LiveRuntime",),
    },
)
