"""The clock/scheduler seam: the time-source protocol and periodic tasks.

The protocol core (dissemination, maintenance, bootstrap, the baselines)
never needs to know *what kind of time* it runs on — it only reads ``now``,
schedules callbacks, and runs periodic tasks. This module names that
contract:

* :class:`Clock` — the scheduling surface (``now`` / ``schedule`` /
  ``schedule_at`` / ``every``; cancellation lives on the returned
  :class:`Handle`). :class:`repro.sim.engine.Engine` implements it as the
  **virtual-time oracle**: deterministic discrete-event time, the thing
  golden tests replay against. The live runtime's
  :class:`repro.service.clock.AsyncClock` only reads wall-clock ``now``:
  the static system it serves schedules nothing.
* :class:`PeriodicTask` — the paper's repeatedly-executed tasks
  (KEEP_TABLE_UPDATED, FIND_SUPER_CONTACT), written against :class:`Clock`
  only.

Code that needs engine-only capabilities (``run``, ``dispatch``, event
accounting) keeps importing :class:`~repro.sim.engine.Engine`;
everything that merely *tells time* takes a :class:`Clock`.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.errors import SchedulingError
from repro.validation import check_positive


@runtime_checkable
class Handle(Protocol):
    """A scheduled callback that can be cancelled.

    Returned by :meth:`Clock.schedule` / :meth:`Clock.schedule_at`;
    :class:`repro.sim.engine.EventHandle` satisfies it.
    """

    def cancel(self) -> None:
        """Prevent the callback from running (no-op once fired)."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class Clock(Protocol):
    """Time source + callback scheduler (the engine/runtime seam).

    Implementations must execute same-time callbacks in scheduling (FIFO)
    order — the property the protocol core's determinism rests on, and
    what makes a live trace replayable on the discrete-event oracle.
    """

    @property
    def now(self) -> float:
        """Current time (virtual for the engine, wall-clock for the
        live runtime; unitless either way)."""
        ...  # pragma: no cover - protocol

    def schedule(self, delay: float, callback: Callable[[], Any]) -> Handle:
        """Run ``callback`` after ``delay`` time units (``delay >= 0``)."""
        ...  # pragma: no cover - protocol

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> Handle:
        """Run ``callback`` at absolute ``time`` (``time >= now``)."""
        ...  # pragma: no cover - protocol

    def every(
        self,
        interval: float,
        callback: Callable[[], Any],
        *,
        initial_delay: float | None = None,
    ) -> "PeriodicTask":
        """Schedule a :class:`PeriodicTask` firing every ``interval``."""
        ...  # pragma: no cover - protocol


class PeriodicTask:
    """A callback re-scheduled every ``interval`` time units.

    Models the paper's repeatedly-executed tasks (Fig. 6's
    KEEP_TABLE_UPDATED, Fig. 4's FIND_SUPER_CONTACT timeout loop). The task
    stops when :meth:`stop` is called or when the callback returns
    ``False``. Written against :class:`Clock` only.
    """

    def __init__(
        self,
        clock: Clock,
        interval: float,
        callback: Callable[[], Any],
        *,
        initial_delay: float | None = None,
    ):
        check_positive(interval, "interval", error=SchedulingError)
        self._clock = clock
        self._interval = interval
        self._callback = callback
        self._stopped = False
        delay = interval if initial_delay is None else initial_delay
        self._handle = clock.schedule(delay, self._fire)

    def stop(self) -> None:
        """Cancel future firings."""
        self._stopped = True
        self._handle.cancel()

    def _fire(self) -> None:
        if self._stopped:
            return
        if self._callback() is False or self._stopped:
            self._stopped = True
            return
        self._handle = self._clock.schedule(self._interval, self._fire)
