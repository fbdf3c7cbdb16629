"""The delivery-transport seam behind :class:`repro.net.network.Network`.

The network's six-stage sender-side pipeline (attempt accounting, liveness,
perceived failures, partitions, channel loss, latency/fault sampling) is
transport-independent — it runs identically whether deliveries land on the
discrete-event engine or in a live in-process queue. Only the *last* step —
"execute this delivery call after ``delay``" — differs, and that step is
this module's :class:`Transport` protocol:

* :class:`~repro.sim.engine.Engine` is its own transport: ``dispatch`` is
  the engine's scheduling primitive, so deliveries are ordinary engine
  events (per-destination ``pending``/``processed`` accounting, the
  zero-latency FIFO bucket). It is what a :class:`Network` built without
  ``transport=`` uses.
* :class:`QueueTransport` — an in-process delivery queue for the live
  runtime: deliveries are enqueued with their due time and executed by an
  explicit :meth:`~QueueTransport.pump` (the asyncio pump task, or a test
  draining synchronously).

Both order calls with the same :class:`~repro.sim.engine.CallQueue` —
``(due, enqueue order)`` here is the engine's ``(time, seq)`` — so a
zero-latency cascade pumps in the order the engine would run it, which is
what makes a live trace replayable on the virtual-time oracle. Because the
latency and fault hooks run *before* dispatch, both transports consult them
identically by construction.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.errors import SchedulingError
from repro.sim.clock import Clock
from repro.sim.engine import CallQueue, EventHandle


@runtime_checkable
class Transport(Protocol):
    """Executes delivery callbacks after a sampled latency."""

    def dispatch(
        self,
        delay: float,
        fn: Callable[..., Any],
        args: tuple,
        *,
        count: int = 1,
    ):
        """Run ``fn(*args)`` after ``delay``; ``count`` is the number of
        logical deliveries the single call stands for (a batched fan-out
        passes the whole target tuple as one call). Returns a cancellable
        handle."""
        ...  # pragma: no cover - protocol


class QueueTransport:
    """In-process delivery queue, pumped explicitly.

    ``dispatch`` enqueues; :meth:`pump` executes every entry due at or
    before the clock's current time, in ``(due, enqueue order)`` order.
    Entries enqueued *while pumping* (a gossip cascade) join the same pump
    when they are already due — mirroring the engine's zero-latency FIFO
    bucket, where a cascade drains completely before time advances.

    ``on_enqueue`` (optional) fires synchronously on every dispatch — the
    live runtime passes its pump-waker so an idle asyncio loop learns
    there is work without polling.
    """

    def __init__(
        self,
        clock: Clock,
        *,
        on_enqueue: Callable[[], None] | None = None,
    ):
        self._clock = clock
        self._queue = CallQueue()
        self._on_enqueue = on_enqueue
        #: logical deliveries enqueued / executed so far (per-destination,
        #: mirroring Engine.pending/processed accounting); without
        #: cancellations ``dispatched == executed + pending`` at all times
        self.dispatched = 0
        self.executed = 0

    @property
    def pending(self) -> int:
        """Logical deliveries still queued (cancelled ones excluded)."""
        return self._queue.pending

    def next_due(self) -> float | None:
        """Due time of the earliest live entry, or None when idle."""
        return self._queue.peek_time()

    def dispatch(
        self,
        delay: float,
        fn: Callable[..., Any],
        args: tuple,
        *,
        count: int = 1,
    ) -> EventHandle:
        if delay < 0:
            raise SchedulingError(f"cannot deliver in the past (delay={delay})")
        handle = self._queue.push(self._clock.now + delay, fn, args, count)
        self.dispatched += count
        if self._on_enqueue is not None:
            self._on_enqueue()
        return handle

    def pump(self, now: float | None = None) -> int:
        """Execute every delivery due at or before ``now`` (default: the
        clock's current time, re-read as the cascade enqueues more work).
        Returns the number of logical deliveries executed."""
        pop_due = self._queue.pop_due
        clock = self._clock
        start = self.executed
        while True:
            handle = pop_due(clock.now if now is None else now)
            if handle is None:
                return self.executed - start
            # Counted before the call, so a raising delivery stays counted.
            self.executed += handle._count
            fn, args = handle._fn, handle._args
            handle._fn = handle._args = None  # a fired call is garbage too
            fn(*args)

    def __repr__(self) -> str:
        return (
            f"QueueTransport(pending={self.pending}, "
            f"executed={self.executed})"
        )
