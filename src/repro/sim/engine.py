"""Event-driven simulation engine and the call queue under it.

A minimal, fast discrete-event scheduler: calls are executed in timestamp
order, ties broken by scheduling order (FIFO), which keeps runs
deterministic. Periodic protocol tasks (the paper's KEEP_TABLE_UPDATED and
FIND_SUPER_CONTACT timers) are built on top via :class:`PeriodicTask`.

Time is a unitless float; the paper's synchronous gossip rounds map to
events at integer times with zero-latency message delivery in between.

That ``(time, scheduling order)`` rule is implemented once, in
:class:`CallQueue`: a heap of :class:`EventHandle` entries with lazy
discard of cancelled heads and an exact live-event count. Every queued call
has one shape — ``fn(*args)`` standing for ``count`` logical events — so a
fan-out folded into a single array-batch entry is indistinguishable,
counter-wise, from one entry per destination. :class:`Engine` (virtual
time) is a :class:`CallQueue`; the live runtime's
:class:`repro.net.transport.QueueTransport` (wall clock) owns one.

The engine adds one fast path, the **zero-latency FIFO bucket**: a call
scheduled at exactly the current time goes into a plain deque instead of
the heap. Because simulation time only advances once every same-time call
has run, the bucket drains before any later heap entry fires, so FIFO
tie-breaking is preserved while the dominant zero-latency case (the paper's
synchronous rounds) skips the ``O(log n)`` heap entirely.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from math import inf
from typing import Any, Callable

from repro.errors import SchedulingError, SimulationError
from repro.sim.clock import Clock, Handle, PeriodicTask

__all__ = ["CallQueue", "Clock", "Engine", "EventHandle", "Handle", "PeriodicTask"]


class EventHandle:
    """Handle to one queued call ``fn(*args)``, allowing cancellation.

    Creating a handle registers its ``count`` logical events with ``queue``
    (sequence number, live count); the call lives on the handle, not in the
    queue entry, so :meth:`cancel` can release it (and everything it
    captures) immediately instead of pinning it until the entry is popped.
    """

    __slots__ = ("time", "_seq", "_count", "_fn", "_args", "_queue", "_cancelled")

    def __init__(
        self,
        queue: "CallQueue",
        time: float,
        fn: Callable[..., Any],
        args: tuple,
        count: int,
    ):
        # NaN passes every ordered check and corrupts the heap; an infinite
        # time is never due on a queue and, once fired on an engine, makes
        # every later ``now + delay`` the current time.
        if not -inf < time < inf:
            raise SchedulingError(f"event time must be finite, got {time}")
        if count < 1:
            raise SchedulingError(f"count must be >= 1, got {count}")
        self.time = time
        self._seq = next(queue._sequence)
        self._count = count
        self._fn = fn  # None once fired or cancelled
        self._args = args
        self._queue = queue
        self._cancelled = False
        queue._live += count

    def cancel(self) -> None:
        """Prevent the call from running (no-op if already fired).

        Cancelling releases the call immediately and decrements the queue's
        live-event count; the dead queue entry is discarded lazily when it
        reaches the front.
        """
        if self._fn is None:
            return
        self._cancelled = True
        self._fn = self._args = None
        self._queue._live -= self._count


class CallQueue:
    """Calls ordered by ``(time, push order)``, cancellable in O(1).

    The queue orders and counts; running a popped call — take ``_fn`` and
    ``_args`` off the handle, then ``fn(*args)`` — is up to the owner, which
    also keeps its own executed total.
    """

    def __init__(self) -> None:
        #: (time, seq, handle) — the call itself lives on the handle
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._sequence = itertools.count()
        self._live = 0

    @property
    def pending(self) -> int:
        """Number of logical events still queued.

        Exact: a cancelled call is subtracted the moment it is cancelled,
        and a call standing for ``count`` events counts ``count`` times.
        """
        return self._live

    def push(
        self, time: float, fn: Callable[..., Any], args: tuple = (), count: int = 1
    ) -> EventHandle:
        """Queue ``fn(*args)`` at ``time``, standing for ``count`` events."""
        handle = EventHandle(self, time, fn, args, count)
        heapq.heappush(self._heap, (time, handle._seq, handle))
        return handle

    def requeue(
        self, handle: EventHandle, fn: Callable[..., Any], args: tuple, count: int
    ) -> None:
        """Queue ``fn(*args)``, standing for ``count`` events, again at the
        ``(time, seq)`` of ``handle`` — a call popped from this queue that
        raised with ``count`` of its events not yet run.

        The call was the earliest one when it was popped, so the rest runs
        next, ahead of everything queued since. Its events count as pending
        again and no longer as executed: the owner overrides this to take
        them back off its executed total.
        """
        handle._fn, handle._args, handle._count = fn, args, count
        self._live += count
        heapq.heappush(self._heap, (handle.time, handle._seq, handle))

    def peek_time(self) -> float | None:
        """Time of the earliest live call, or None when there is none."""
        heap = self._heap
        while heap:
            if not heap[0][2]._cancelled:
                return heap[0][0]
            heapq.heappop(heap)
        return None

    def pop_due(self, horizon: float) -> EventHandle | None:
        """Remove and return the earliest live call if its time is at or
        before ``horizon`` (its events leave :attr:`pending`), else None."""
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            handle = heapq.heappop(heap)[2]
            if not handle._cancelled:
                self._live -= handle._count
                return handle
        return None


class Engine(CallQueue):
    """Deterministic discrete-event scheduler — the virtual-time oracle.

    Implements the :class:`repro.sim.clock.Clock` protocol and, through
    :meth:`dispatch`, the network's delivery
    :class:`~repro.net.transport.Transport`, so the protocol core written
    against :class:`Clock` runs here deterministically and on the live
    wall-clock runtime unchanged. It is a :class:`CallQueue` whose
    :meth:`push` knows the current time; :meth:`run` pops
    (``peek_time`` and ``pop_due`` see the heap only, not the bucket).

    >>> engine = Engine()
    >>> seen = []
    >>> _ = engine.schedule(2.0, lambda: seen.append(engine.now))
    >>> _ = engine.schedule(1.0, lambda: seen.append(engine.now))
    >>> engine.run()
    2
    >>> seen
    [1.0, 2.0]
    """

    def __init__(self) -> None:
        super().__init__()
        #: calls at exactly the current time, FIFO (they still take a
        #: sequence number, and count in ``pending``, like heap entries)
        self._bucket: deque[EventHandle] = deque()
        self._now = 0.0
        self._processed = 0
        self._running = False

    # ------------------------------------------------------------------
    # Clock & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed(self) -> int:
        """Number of logical events executed so far."""
        return self._processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(
        self, time: float, fn: Callable[..., Any], args: tuple = (), count: int = 1
    ) -> EventHandle:
        """Queue ``fn(*args)`` at absolute ``time`` (``time >= now``); a
        call at exactly the current time joins the FIFO bucket."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        if time != self._now:
            return CallQueue.push(self, time, fn, args, count)
        handle = EventHandle(self, time, fn, args, count)
        self._bucket.append(handle)
        return handle

    def dispatch(
        self,
        delay: float,
        fn: Callable[..., Any],
        args: tuple = (),
        *,
        count: int = 1,
    ) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` time units (``delay >= 0``).

        ``count`` is the number of logical events the single call stands
        for: the network's vectorized delivery batches pass the whole
        fan-out as one ``fn(sender, targets, message)`` call with
        ``count=len(targets)``, and :attr:`pending` / :attr:`processed`
        account for every one of them. Cancelling the handle cancels them
        all.
        """
        if delay < 0:
            raise SchedulingError(f"cannot schedule in the past (delay={delay})")
        # One frame per scheduled call (plus the handle's own): this is
        # push() with the time already known not to lie in the past.
        now = self._now
        time = now + delay
        handle = EventHandle(self, time, fn, args, count)
        if time != now:
            heapq.heappush(self._heap, (time, handle._seq, handle))
        else:
            self._bucket.append(handle)
        return handle

    def requeue(
        self, handle: EventHandle, fn: Callable[..., Any], args: tuple, count: int
    ) -> None:
        # The heap, even at the current time: a heap call due now runs
        # before the bucket, and the handle's seq puts it first there.
        CallQueue.requeue(self, handle, fn, args, count)
        self._processed -= count

    def schedule(self, delay: float, callback: Callable[[], Any]) -> EventHandle:
        """Run ``callback`` after ``delay`` time units (``delay >= 0``)."""
        return self.dispatch(delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> EventHandle:
        """Run ``callback`` at absolute ``time`` (``time >= now``)."""
        return self.push(time, callback)

    def every(
        self,
        interval: float,
        callback: Callable[[], Any],
        *,
        initial_delay: float | None = None,
    ) -> PeriodicTask:
        """Schedule a :class:`PeriodicTask` firing every ``interval``."""
        return PeriodicTask(self, interval, callback, initial_delay=initial_delay)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _fire(self, horizon: float, stop: float) -> bool:
        """Execute queued calls in ``(time, scheduling order)`` order.

        Returns True when ``processed`` reached ``stop`` with events still
        queued; False when the queue drained or nothing is left at or
        before ``horizon`` (simulation time then moves to ``horizon``).
        :meth:`run` is this loop under its guards.
        """
        bucket = self._bucket
        heap = self._heap
        heappop = heapq.heappop
        while self._live:
            if self._processed >= stop:
                return True
            due = horizon
            if bucket:
                while bucket and bucket[0]._cancelled:
                    bucket.popleft()
                # Bucket calls sit at the current time. A heap call at that
                # time was pushed before time got there, so it runs first;
                # a later one waits.
                if bucket and bucket[0].time < horizon:
                    due = bucket[0].time
            handle = None
            while heap and heap[0][0] <= due:
                popped = heappop(heap)[2]
                if not popped._cancelled:  # cancelled heads: lazy discard
                    handle = popped
                    break
            if handle is None:
                if not bucket or bucket[0].time > horizon:
                    self._now = horizon
                    return False
                handle = bucket.popleft()
            count = handle._count
            self._live -= count
            self._now = handle.time
            self._processed += count
            fn, args = handle._fn, handle._args
            handle._fn = handle._args = None  # a fired call is garbage too
            fn(*args)
        return False

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> int:
        """Drain the event queue.

        Stops when the queue is empty, when simulation time would exceed
        ``until``, or after ``max_events`` events — whichever happens
        first. Returns the number of events executed by this call.
        ``max_events`` guards against accidental live-lock from
        self-rescheduling tasks: exceeding it with events still pending and
        no ``until`` horizon raises :class:`SimulationError`. (A call runs
        atomically, so a stop boundary can overshoot by at most one call's
        ``count`` — and one call can be a whole clean-channel wave, i.e. a
        flood's whole hop, so ``max_events`` can overshoot by that wave's
        ``count``.) An ``until`` that is not finite or lies before
        :attr:`now` raises :class:`SchedulingError` before anything runs:
        time would move to it.
        """
        if until is not None and not self._now <= until < inf:
            raise SchedulingError(
                f"run(until=...) must be finite and >= now={self._now}, "
                f"got {until}"
            )
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._running = True
        start = self._processed
        try:
            stopped = self._fire(
                inf if until is None else until,
                inf if max_events is None else start + max_events,
            )
        finally:
            self._running = False
        if stopped and until is None:
            raise SimulationError(
                f"exceeded max_events={max_events} with "
                f"{self.pending} events still pending"
            )
        if until is not None and not self._live and self._now < until:
            self._now = until
        return self._processed - start

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain (bounded by ``max_events``)."""
        return self.run(max_events=max_events)
