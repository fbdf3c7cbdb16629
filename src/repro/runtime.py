"""Shared simulation harness: one bundle of clock/network/rng/metrics.

Both :class:`repro.core.system.DaMulticastSystem` and the baseline systems
need the same substrate wiring — a deterministic clock, named RNG streams,
an unreliable network with statistics, a delivery tracker and optional
tracing. Centralizing it keeps every protocol measured under identical
conditions, which the paper's comparison explicitly requires ("for
fairness, all approaches use the same underlying membership algorithm" —
and, here, the same network and failure substrate too).

The harness is time-source-agnostic: by default it builds a discrete-event
:class:`~repro.sim.engine.Engine` (the virtual-time oracle every golden
test replays against), but any :class:`~repro.sim.clock.Clock` — e.g. the
live runtime's wall-clock :class:`~repro.service.clock.AsyncClock` — can
be injected together with a matching delivery
:class:`~repro.net.transport.Transport`. The protocol core above never
notices the difference.
"""

from __future__ import annotations

import itertools

from repro.errors import ConfigError
from repro.failures.model import FailureModel
from repro.metrics.collector import DeliveryTracker
from repro.metrics.streaming import StreamingDeliveryTracker
from repro.net.latency import LatencyModel, ZERO_LATENCY
from repro.net.network import Network
from repro.net.stats import NetworkStats
from repro.net.transport import Transport
from repro.sim.clock import Clock
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog


class SimulationHarness:
    """Clock + RNG registry + network + metrics, wired deterministically."""

    def __init__(
        self,
        *,
        seed: int = 0,
        p_success: float = 1.0,
        latency: LatencyModel = ZERO_LATENCY,
        failure_model: FailureModel | None = None,
        trace: bool = False,
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
        self.trace = TraceLog(enabled=trace)
        self.stats = NetworkStats()
        self.network = Network(
            self.clock,
            self.rngs.stream("network"),
            p_success=p_success,
            latency=latency,
            failure_model=failure_model,
            stats=self.stats,
            trace=self.trace,
            transport=transport,
        )
        #: ``tracker="full"`` keeps per-(event, pid) records (the figures'
        #: raw material); ``"streaming"`` folds deliveries into O(topics)
        #: per-topic aggregates for 10⁵–10⁶-process runs. A pre-built
        #: tracker instance is adopted as-is — how the scenario layer
        #: installs a windowed ``StreamingDeliveryTracker(window=...)``
        #: for the graceful-degradation series.
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
        statistics, tracker and trace stay readable; nothing can be
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

        The columnar backend gives each group one contiguous pid block so
        membership reduces to index arithmetic; reservation goes through
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

    def __repr__(self) -> str:
        return (
            f"SimulationHarness(seed={self.rngs.master_seed}, "
            f"actors={len(self.network)}, now={self.now})"
        )
