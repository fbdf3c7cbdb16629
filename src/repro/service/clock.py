"""Wall-clock time over an asyncio event loop.

The live half of the clock seam: where :class:`~repro.sim.engine.Engine`
*is* time (events advance it), :class:`AsyncClock` *reads* time from the
loop's monotonic clock. The live service runs a static system, whose
processes only read ``now`` (the delivery queue and the tracker's
timestamps); nothing on it schedules a timer, so the clock has no
scheduling half.

Wall-clock access is intentional and confined to this package; the
determinism lint's DET002 allowlist exempts ``service/`` explicitly (see
``lint/config.py``) rather than via per-line pragmas.
"""

from __future__ import annotations

import asyncio


class AsyncClock:
    """Reads ``loop.time()``.

    Time is reported relative to the moment of :meth:`attach`, so a fresh
    runtime starts near ``now == 0``
    just like a fresh engine — keeping timestamps in recorded live traces
    comparable to virtual time.
    """

    def __init__(self):
        self._loop: asyncio.AbstractEventLoop | None = None
        self._origin = 0.0

    def attach(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        """Bind to ``loop`` (default: the running loop) and zero the clock.

        Idempotent for the same loop; rebinding to a different loop resets
        the origin (a fresh serve invocation).
        """
        resolved = loop if loop is not None else asyncio.get_running_loop()
        if resolved is self._loop:
            return
        self._loop = resolved
        self._origin = resolved.time()

    @property
    def now(self) -> float:
        """Seconds since :meth:`attach` (0.0 before attachment)."""
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._origin
