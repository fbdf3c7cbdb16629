"""The unreliable best-effort network connecting simulated processes.

Transport pipeline
------------------

Every transmission runs the following six-stage pipeline (each stage may
drop the message, and every outcome is counted in
:class:`~repro.net.stats.NetworkStats`):

1. the send attempt is recorded (this is what the paper's message-complexity
   figures count — a lost message still costs its transmission);
2. a dead sender cannot transmit (guards protocol bugs under churn);
3. the failure model may block the transmission (Fig. 11's
   weakly-consistent perceived failures);
4. the partition model may block the pair;
5. the channel loses the message with probability ``1 - p_success``
   (the paper's ``p_succ = 0.85`` in §VII);
6. a latency is sampled and delivery is scheduled; if the target is dead
   *at delivery time* the message is dropped (stillborn targets, churn).

When a link-fault model is installed (:meth:`Network.install_faults`,
:mod:`repro.net.faults`) an extra stage runs between 5 and 6: the model
may *lose* the message (drop reason ``fault_loss``), *duplicate* it
(``copies`` identical deliveries, absorbed by protocol-level dedup) or
*spike* its latency — each effect counted in
``NetworkStats.faults_by_reason``. Fault draws use a dedicated RNG, so
uninstalled (or :class:`~repro.net.faults.NoFaults`) runs are
bit-identical to pre-fault-layer trajectories — the hook is skipped and
consumes nothing.

Batched fast path
-----------------

Every gossip step of the protocols is a *fan-out* — Fig. 7's DISSEMINATE
alone sends to ``log(S)+c`` topic-table members plus up to ``z`` supergroup
contacts — so :meth:`Network.multicast` runs the six stages once per
fan-out, staged so that what is the same for every target is decided once:

* **validation by span** — when block actors are registered and the
  smallest and largest target fall in one registered ``[start, stop)``,
  every pid between them is registered and owned by that actor, so the
  fan-out validates with two comparisons; two blocks, a gap, or per-pid
  actors mixed in fall back to the per-target check.
  :class:`~repro.errors.UnknownActor` is raised before any statistic is
  recorded either way;
* **bulk statistics** — ``record_sent_many`` / ``record_dropped_many`` /
  ``record_delivered_many``, once per outcome class instead of once per
  destination;
* **the clean channel** — when nothing installed draws randomness or
  depends on the time — a failure model that declares its dead set
  (``static_dead``, :mod:`repro.failures.model`: ``AlwaysAlive``'s is
  empty, ``StillbornFailures``' is the paper's Figs. 8–10 setting),
  ``FullyConnected``, ``ConstantLatency``, no fault hook — and tracing is
  off, the sender-side pass (stages 2–5) is one membership test on the
  sender and then exactly the loss draw per target, in target order, and
  stage 6 one latency class: one list comprehension, one
  ``record_dropped_many``, and the survivors join the current *wave*
  (below); at delivery the batch is filtered against the same set in one
  comprehension. The branch is chosen per call from what the installed
  models are and declare — there is no switch to set, and a failure model
  that declares nothing (churn, perceived failures, a user's own) never
  takes it;
* **the general channel** — anything else checks the sender once, then
  runs stages 3–5 per target *in target order*, with exactly the RNG
  draws :meth:`Network.send` would make (a no-op built-in is still
  skipped, since it draws nothing). What depends on the fan-out is still
  decided once per fan-out: when a model keyed by link class is installed
  (:class:`~repro.net.latency.LinkClassLatency`,
  :class:`~repro.net.faults.LinkClassFaults`), the link classifier bound on
  the network (:meth:`Network.bind_link_classifier`) classifies the whole
  fan-out in one call — one classification per transmission, shared by the
  latency and the fault model — and each class resolves to its bound
  ``sample``/``transmit`` once; only the draws are per target. Either way
  a multicast is bit-identical to the equivalent loop of sends under the
  same seed;
* **one entry per latency class** (general channel) — surviving
  deliveries that share a latency share one ``fn(*args)`` array-batch
  call on the transport
  (:meth:`repro.sim.engine.Engine.dispatch`) instead of one closure and one
  heap push per destination; with zero latency (the paper's synchronous
  rounds, the dominant case) an entire fan-out is one entry in the
  engine's FIFO bucket. The call carries ``count=len(batch)``, so
  ``Engine.processed``/``pending`` account per destination exactly like a
  loop of sends. A class of one — every target, under a continuous
  latency model — is not dressed as a batch: it is delivered by the same
  ``_deliver`` a :meth:`Network.send` schedules;
* **delivery by span** — at delivery time a batch whose live targets lie
  in one block is a single ``handle_batch`` call, resolved with the same
  two comparisons; otherwise consecutive same-block runs are flushed one
  call each and per-pid actors get ``handle_message`` in order.

Waves (the clean channel's transport entries)
---------------------------------------------

A flood is a few hops deep and thousands of fan-outs wide, so the clean
channel pays one transport entry per *wave*, not per fan-out. While a
clean-channel entry is being delivered, each :meth:`Network.multicast` its
receivers issue does the whole sender-side pass as above — validation,
``record_sent_many``, the dead-sender test, the loss draws, the drop
counts — and appends its survivors to the current wave as one
``(sender, targets, message)`` sub-batch. When the entry's deliveries
finish, the wave is dispatched as **one** entry, ``count`` = its
survivors, at the channel's single ``latency.delay``; its delivery walks
the sub-batches in order, doing per sub-batch what the general channel's
``_deliver_batch`` does per entry (the ``static_dead`` filter, the bulk
statistics, the span check before ``handle_batch``/``handle_message``). A
fan-out issued outside any delivery — a publish — is a wave of one. Any
other dispatch the network makes while a wave is being collected (a
:meth:`Network.send`, a general-channel fan-out) first sends the
fan-outs collected so far as their own wave, so nothing the network
dispatches ever moves past a wave.

Why the trajectory cannot move, by induction over the waves: *each wave's
sub-batches are a contiguous run of the one-entry-per-fan-out order*
(``(time, seq)`` on the engine, FIFO in its zero-latency bucket,
``(due, enqueue order)`` on a queue transport), and the wave holds the
place of its first sub-batch in it. A wave of one is such a run. If a
wave is one, then in the per-fan-out order nothing runs between its
sub-batches, so the fan-outs their receivers issue would have been
dispatched one after another, all at the same ``now + delay``, with no
other dispatch between them — consecutive sequence numbers, the next
wave — and the wave that collects them is dispatched before anything
else is, i.e. at the place of its first member. So deliveries, and
every draw they cause, happen in the same order: the network's loss
draws, each ``group/<topic>`` stream of the columnar host and each
``process/<pid>`` stream of the object host. The argument needs one
thing of the actors — that a delivery dispatches only through the
network (no in-repo actor schedules a timer while handling a message).
Counters see the difference only mid-run: ``Engine.processed`` moves a
wave at a time (``max_events`` can overshoot by a wave's ``count``),
and a delivery that raises leaves the wave's undelivered rest requeued
at the wave's own place (:meth:`~repro.sim.engine.CallQueue.requeue`),
ahead of the fan-outs already collected, which are dispatched as a wave
— the per-fan-out order again.

Ordering caveats (documented, not observable by well-behaved actors): the
trace log groups a multicast's ``net.sent`` records before its drop
records, and batched deliveries evaluate target liveness at the shared
delivery timestamp — identical outcomes unless an actor's
``handle_message`` changes ground-truth liveness of a co-delivered target
at that same instant, which no in-repo model does.

Actors are any objects with a ``pid`` attribute and a
``handle_message(message)`` method. At columnar scale one Python object
per process is itself the memory wall, so :meth:`Network.register_block`
registers a single *block actor* for a contiguous pid range ``[start,
stop)``; it receives whole delivery batches through
``handle_batch(sender, targets, message)`` instead of one
``handle_message`` call per pid.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import repeat
from typing import Iterable, Protocol, Sequence, runtime_checkable

from repro.errors import ConfigError, SchedulingError, UnknownActor
from repro.failures.model import AlwaysAlive, FailureModel
from repro.net.faults import LinkFaultModel, NoFaults
from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    LinkClassifier,
    ZERO_LATENCY,
)
from repro.net.message import Message
from repro.net.partitions import FullyConnected, PartitionModel
from repro.net.stats import (
    DROP_CHANNEL_LOSS,
    DROP_DEAD_SENDER,
    DROP_DEAD_TARGET,
    DROP_FAULT_LOSS,
    DROP_PARTITIONED,
    DROP_PERCEIVED_FAILED,
    FAULT_DELAY_SPIKE,
    FAULT_DUPLICATE,
    FAULT_LOSS,
    NetworkStats,
)
from repro.net.transport import Transport
from repro.sim.clock import Clock
from repro.sim.trace import TraceLog


#: "No link class resolved yet" — distinct from None, which is a class (the
#: default model's).
_UNRESOLVED = object()


class _Wave(list):
    """One clean-channel transport entry: ``(sender, targets, message)``
    sub-batches in dispatch order and — once dispatched — the entry's
    handle."""

    __slots__ = ("handle",)

    @property
    def count(self) -> int:
        """The deliveries the entry stands for."""
        return sum([len(targets) for _, targets, _ in self])


@runtime_checkable
class Actor(Protocol):
    """Anything that can be registered on the network."""

    pid: int

    def handle_message(self, message: Message) -> None:
        """Process one delivered message."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class BlockActor(Protocol):
    """One actor standing in for a contiguous pid range.

    The columnar backend registers a single object per *group* rather than
    one per process; the network hands it delivery batches with the
    resolved target pids so the actor can index straight into its arrays.
    """

    def handle_batch(
        self, sender: int, targets: "tuple[int, ...]", message: Message
    ) -> None:
        """Process one message delivered to every pid in ``targets``."""
        ...  # pragma: no cover - protocol


class Network:
    """Best-effort message transport over a clock and delivery transport.

    ``clock`` supplies timestamps for the sender-side pipeline;
    ``transport`` executes the surviving deliveries. Without one, the
    clock itself is the transport — an :class:`~repro.sim.engine.Engine`
    has ``dispatch``, so deliveries are ordinary engine events; the live
    runtime passes a :class:`~repro.net.transport.QueueTransport` instead.
    """

    def __init__(
        self,
        clock: Clock,
        rng: random.Random,
        *,
        p_success: float = 1.0,
        latency: LatencyModel = ZERO_LATENCY,
        failure_model: FailureModel | None = None,
        partition_model: PartitionModel | None = None,
        stats: NetworkStats | None = None,
        trace: TraceLog | None = None,
        faults: LinkFaultModel | None = None,
        fault_rng: random.Random | None = None,
        transport: Transport | None = None,
    ):
        if not 0.0 <= p_success <= 1.0:
            raise ConfigError(f"p_success must be in [0,1], got {p_success}")
        if transport is None:
            if not isinstance(clock, Transport):
                raise SchedulingError(
                    f"{type(clock).__name__} has no dispatch, so it cannot "
                    "deliver; pass transport=QueueTransport(clock)"
                )
            transport = clock
        self._clock = clock
        self._transport: Transport = transport
        self._rng = rng
        self.p_success = p_success
        self._link_classifier: LinkClassifier | None = None
        self._latency = latency
        self.install_faults(faults, fault_rng)  # also resolves link classes
        self.failure_model = failure_model or AlwaysAlive()
        self.partition_model: PartitionModel = partition_model or FullyConnected()
        self.stats = stats if stats is not None else NetworkStats()
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self._actors: dict[int, Actor] = {}
        #: block actors: sorted, non-overlapping (start, stop, actor) ranges
        self._blocks: list[tuple[int, int, BlockActor]] = []
        self._block_starts: list[int] = []
        #: last resolved block — fan-outs target one group, so this hits
        self._block_cache: tuple[int, int, BlockActor] | None = None
        #: sorted pid tuple, rebuilt lazily after registrations
        self._pids_cache: tuple[int, ...] | None = None
        #: the wave being collected while a wave is delivered, else None
        self._wave: _Wave | None = None

    @property
    def clock(self) -> Clock:
        """The time source timestamps are read from."""
        return self._clock

    @property
    def transport(self) -> Transport:
        """The delivery transport surviving messages dispatch through."""
        return self._transport

    # ------------------------------------------------------------------
    # Failures (what the model declares is read once per model, not per send)
    # ------------------------------------------------------------------
    @property
    def failure_model(self) -> FailureModel:
        """The installed failure model (assign to replace it)."""
        return self._failure_model

    @failure_model.setter
    def failure_model(self, model: FailureModel) -> None:
        self._failure_model = model
        #: the fixed dead set the model declares (:mod:`repro.failures.model`),
        #: or None: the clean channel's entry condition on the failure side
        self._static_dead: frozenset[int] | None = getattr(
            model, "static_dead", None
        )

    # ------------------------------------------------------------------
    # Latency and link classes (resolved once per model, not per send)
    # ------------------------------------------------------------------
    @property
    def latency(self) -> LatencyModel:
        """The installed latency model."""
        return self._latency

    @latency.setter
    def latency(self, model: LatencyModel) -> None:
        self._latency = model
        self._resolve_link_classes()

    def bind_link_classifier(self, classifier: LinkClassifier) -> None:
        """Install the link classifier ``(sender, targets) → link classes``.

        It usually needs the built system (pid → topic), which does not
        exist when the network is constructed, so it is bound afterwards —
        once, here: the latency and the fault model share one
        classification per transmission. It is consulted only while a
        class-keyed model (one with ``model_for``, i.e.
        :class:`~repro.net.latency.LinkClassLatency` or
        :class:`~repro.net.faults.LinkClassFaults`) is installed; without a
        classifier such a model answers with its default.
        """
        self._link_classifier = classifier
        self._resolve_link_classes()

    def _resolve_link_classes(self) -> None:
        """Re-derive, after any of the three changed, whether transmissions
        are classified at all, and forget the per-class models."""
        keyed = hasattr(self._latency, "model_for") or hasattr(
            self._faults, "model_for"
        )
        self._classify = self._link_classifier if keyed else None
        #: link class → bound (sample, transmit), filled on first use
        self._class_models: dict[str | None, tuple] = {}

    def _models_for(self, link_class: str | None) -> tuple:
        """The bound ``(sample, transmit)`` of one link class — resolved
        once per class and installed model, not per target."""
        latency, faults = self._latency, self._faults
        if hasattr(latency, "model_for"):
            latency = latency.model_for(link_class)
        if hasattr(faults, "model_for"):
            faults = faults.model_for(link_class)
        models = self._class_models[link_class] = (
            latency.sample,
            None if faults is None else faults.transmit,
        )
        return models

    # ------------------------------------------------------------------
    # Link faults (resolved once per model, not per send)
    # ------------------------------------------------------------------
    @property
    def faults(self) -> LinkFaultModel | None:
        """The installed link-fault model (None when faults are off)."""
        return self._faults

    def install_faults(
        self,
        model: LinkFaultModel | None,
        rng: random.Random | None = None,
    ) -> None:
        """Install a link-fault model drawing from its own dedicated ``rng``.

        ``None`` or :class:`~repro.net.faults.NoFaults` uninstalls the
        hook entirely: the transmission paths make **zero** fault-related
        RNG draws, so fault-free runs stay bit-identical to pre-fault-layer
        trajectories. An active model requires ``rng`` — a stream separate
        from the network's own, so enabling faults never shifts the
        channel-loss or latency draws (the scenario layer derives it from
        ``derive_seed(seed, "spec/faults")``).
        """
        if model is None or type(model) is NoFaults:
            self._faults = None
            self._fault_rng = None
            self._fault_hook = None
            self._resolve_link_classes()
            return
        if not callable(getattr(model, "transmit", None)):
            raise ConfigError(
                f"faults must be a link-fault model, got {model!r}"
            )
        if rng is None:
            raise ConfigError(
                "an active fault model needs a dedicated fault rng "
                "(pass rng=...; it must not be the network's own stream)"
            )
        self._faults = model
        self._fault_rng = rng
        self._fault_hook = model.transmit
        self._resolve_link_classes()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, actor: Actor) -> None:
        """Attach an actor; its ``pid`` must be unique on this network."""
        pid = actor.pid
        if pid in self._actors or self._block_for(pid) is not None:
            raise ConfigError(f"process id {pid} is already registered")
        self._actors[pid] = actor
        self._pids_cache = None

    def register_block(self, actor: BlockActor, start: int, stop: int) -> None:
        """Attach one block actor covering the pid range ``[start, stop)``.

        The range must be non-empty and must not overlap any registered
        pid — per-pid or block. Deliveries to any pid in the range reach
        ``actor.handle_batch(sender, targets, message)``.
        """
        if stop <= start:
            raise ConfigError(f"empty pid block [{start}, {stop})")
        for b_start, b_stop, _ in self._blocks:
            if start < b_stop and b_start < stop:
                raise ConfigError(
                    f"pid block [{start}, {stop}) overlaps [{b_start}, {b_stop})"
                )
        for pid in self._actors:
            if start <= pid < stop:
                raise ConfigError(
                    f"pid block [{start}, {stop}) overlaps registered pid {pid}"
                )
        self._blocks.append((start, stop, actor))
        self._blocks.sort(key=lambda block: block[0])
        self._block_starts = [block[0] for block in self._blocks]
        self._block_cache = None
        self._pids_cache = None

    def close(self) -> None:
        """Forget every registered actor and block (idempotent).

        Actors point at their network, so the registry is what ties a
        finished simulation into one reference cycle; without it the
        actors are freed as soon as their owner lets go of them.
        Statistics and the trace stay readable.
        """
        self._actors.clear()
        self._blocks.clear()
        self._block_starts.clear()
        self._block_cache = None
        self._pids_cache = None

    def _block_for(self, pid: int) -> BlockActor | None:
        """The block actor owning ``pid``, or None."""
        cached = self._block_cache
        if cached is not None and cached[0] <= pid < cached[1]:
            return cached[2]
        starts = self._block_starts
        if not starts:
            return None
        index = bisect_right(starts, pid) - 1
        if index >= 0:
            block = self._blocks[index]
            if pid < block[1]:
                self._block_cache = block
                return block[2]
        return None

    def _span_block(
        self, targets: Sequence[int]
    ) -> tuple[int, int, BlockActor] | None:
        """The one registered block holding every pid of ``targets``, or
        None (two blocks, a gap, a per-pid actor, an unknown pid).

        Blocks are contiguous and overlap nothing, so when the smallest and
        the largest target fall in the same ``[start, stop)`` every pid
        between them is registered and owned by that block's actor: a
        whole fan-out resolves with two comparisons.
        """
        low = min(targets)
        block = self._block_cache
        if block is None or not block[0] <= low < block[1]:
            if self._block_for(low) is None:
                return None
            block = self._block_cache  # _block_for left low's block here
        return block if max(targets) < block[1] else None

    def _require_registered(self, targets: Sequence[int]) -> None:
        """Raise :class:`UnknownActor` unless every target is registered."""
        if not self._blocks:
            actors = self._actors
            if all(map(actors.__contains__, targets)):
                return
            for target in targets:  # name the first unknown pid
                if target not in actors:
                    raise UnknownActor(
                        f"no actor registered with pid {target}"
                    )
        elif self._span_block(targets) is None:
            for target in targets:
                if target not in self:
                    raise UnknownActor(
                        f"no actor registered with pid {target}"
                    )

    def actor(self, pid: int) -> Actor | BlockActor:
        """Look an actor up by process id (a block pid resolves to its
        block actor)."""
        actor = self._actors.get(pid)
        if actor is not None:
            return actor
        block = self._block_for(pid)
        if block is not None:
            return block
        raise UnknownActor(f"no actor registered with pid {pid}")

    def __contains__(self, pid: int) -> bool:
        return pid in self._actors or self._block_for(pid) is not None

    def __len__(self) -> int:
        return len(self._actors) + sum(
            stop - start for start, stop, _ in self._blocks
        )

    def pid_view(self) -> tuple[int, ...]:
        """All registered process ids, sorted, as a shared immutable view.

        The tuple is built once per registration epoch and reused until the
        next ``register``/``register_block`` invalidates it — callers that
        only iterate (membership refresh, alive-set scans, metrics sweeps)
        skip the per-call list rebuild entirely. Iteration order is the
        same sorted order :attr:`pids` always produced, so RNG draw order
        at every call site is unchanged.
        """
        cached = self._pids_cache
        if cached is None:
            pids = list(self._actors)
            for start, stop, _ in self._blocks:
                pids.extend(range(start, stop))
            pids.sort()
            cached = self._pids_cache = tuple(pids)
        return cached

    @property
    def pids(self) -> list[int]:
        """All registered process ids, sorted (a fresh mutable copy; use
        :meth:`pid_view` to iterate without the copy)."""
        return list(self.pid_view())

    # ------------------------------------------------------------------
    # Liveness (convenience passthroughs used by protocols & metrics)
    # ------------------------------------------------------------------
    def is_alive(self, pid: int) -> bool:
        """Ground-truth liveness of ``pid`` right now."""
        return self._failure_model.is_alive(pid, self._clock.now)

    def alive_pids(self) -> list[int]:
        """All currently alive registered pids, sorted.

        Iterates the cached :meth:`pid_view` — same pids, same sorted
        order, same per-pid liveness queries as the historical
        list-rebuilding version, so trajectories are bit-identical.
        """
        failure_model = self._failure_model
        now = self._clock.now
        return [
            pid for pid in self.pid_view()
            if failure_model.is_alive(pid, now)
        ]

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, sender: int, target: int, message: Message) -> bool:
        """Attempt to transmit ``message``; returns whether delivery was scheduled.

        The return value exists for tests and diagnostics only — protocols
        must not branch on it (channels are best-effort and real senders
        cannot observe losses).
        """
        if target not in self:
            raise UnknownActor(f"no actor registered with pid {target}")
        now = self._clock.now
        self.stats.record_sent(message)
        if self.trace.enabled:
            self.trace.record(
                now, "net.sent", sender, target, message_kind=message.kind
            )

        failure_model = self._failure_model
        if not failure_model.is_alive(sender, now):
            self._drop(message, sender, target, DROP_DEAD_SENDER)
            return False
        if failure_model.transmission_blocked(sender, target, now, self._rng):
            self._drop(message, sender, target, DROP_PERCEIVED_FAILED)
            return False
        if not self.partition_model.connected(sender, target, now):
            self._drop(message, sender, target, DROP_PARTITIONED)
            return False
        if self._rng.random() >= self.p_success:
            self._drop(message, sender, target, DROP_CHANNEL_LOSS)
            return False

        classify = self._classify
        if classify is None:
            sample, fault_hook = self._latency.sample, self._fault_hook
        else:
            (link_class,) = classify(sender, (target,))
            sample, fault_hook = self._class_models.get(
                link_class
            ) or self._models_for(link_class)
        delay = sample(self._rng)
        if fault_hook is not None:
            copies, faulted_delay = fault_hook(
                sender, target, delay, self._fault_rng
            )
            if copies == 0:
                self.stats.record_fault(FAULT_LOSS)
                self._drop(message, sender, target, DROP_FAULT_LOSS)
                return False
            if faulted_delay != delay:
                self.stats.record_fault(FAULT_DELAY_SPIKE)
                if self.trace.enabled:
                    self.trace.record(
                        now, "net.fault", sender, target,
                        message_kind=message.kind, reason=FAULT_DELAY_SPIKE,
                    )
                delay = faulted_delay
            if copies > 1:
                self.stats.record_fault(FAULT_DUPLICATE, copies - 1)
                if self.trace.enabled:
                    self.trace.record(
                        now, "net.fault", sender, target,
                        message_kind=message.kind, reason=FAULT_DUPLICATE,
                    )
                if self._wave:
                    self._flush_wave()
                self._transport.dispatch(
                    delay,
                    self._deliver_batch,
                    (sender, (target,) * copies, message),
                    count=copies,
                )
                return True
        if self._wave:
            self._flush_wave()
        self._transport.dispatch(delay, self._deliver, (sender, target, message))
        return True

    def multicast(
        self, sender: int, targets: Iterable[int], message: Message
    ) -> int:
        """Transmit one ``message`` to every pid in ``targets`` (the batched
        fast path — see the module docstring).

        Semantically identical to ``for t in targets: send(sender, t,
        message)`` under the same seed: per-target RNG draws happen in
        target order, every attempt is individually counted and the same
        drop reasons apply. Returns how many deliveries were scheduled
        (diagnostics only — protocols must not branch on it).
        """
        targets = list(targets)
        if not targets:
            return 0
        # A fan-out inside the block last resolved validates by its span
        # here, without the frames of the general check.
        block = self._block_cache
        if (
            block is None
            or not block[0] <= min(targets)
            or max(targets) >= block[1]
        ):
            self._require_registered(targets)
        stats = self.stats
        count = len(targets)
        stats.record_sent_many(message, count)
        failure_model = self._failure_model
        static_dead = self._static_dead
        partition_model = self.partition_model
        latency = self._latency
        fault_hook = self._fault_hook
        trace = self.trace
        tracing = trace.enabled
        rng = self._rng
        random_draw = rng.random
        p_success = self.p_success

        if (
            static_dead is not None
            and type(partition_model) is FullyConnected
            and type(latency) is ConstantLatency
            and fault_hook is None
            and not tracing
        ):
            # Clean channel: nothing installed draws randomness or reads the
            # clock, so the whole sender-side pass is the dead-sender test
            # and the loss draw per target, in target order. The survivors
            # join the wave being collected (a wave of one outside any
            # delivery — see the module docstring).
            if sender in static_dead:
                stats.record_dropped_many(message, DROP_DEAD_SENDER, count)
                return 0
            survivors = tuple(
                [target for target in targets if random_draw() < p_success]
            )
            scheduled = len(survivors)
            stats.record_dropped_many(
                message, DROP_CHANNEL_LOSS, count - scheduled
            )
            if scheduled:
                wave = self._wave
                if wave is None:
                    self._dispatch_wave(_Wave([(sender, survivors, message)]))
                else:
                    wave.append((sender, survivors, message))
            return scheduled

        now = self._clock.now
        kind = message.kind
        if tracing:
            for target in targets:
                trace.record(now, "net.sent", sender, target, message_kind=kind)

        if not failure_model.is_alive(sender, now):
            stats.record_dropped_many(message, DROP_DEAD_SENDER, count)
            if tracing:
                for target in targets:
                    trace.record(
                        now, "net.dropped", sender, target,
                        message_kind=kind, reason=DROP_DEAD_SENDER,
                    )
            return 0

        # General channel: per-target pass. The no-op built-ins are still
        # skipped per target (they draw no randomness, so the trajectory is
        # unchanged); any other model is consulted per target exactly like
        # send().
        check_perceived = static_dead is None
        check_partition = type(partition_model) is not FullyConnected
        fixed_delay = latency.delay if type(latency) is ConstantLatency else None
        sample = latency.sample

        # Link classes are decided once per fan-out, for the latency and the
        # fault model together, and only when one of them is keyed by class;
        # the models are re-resolved where the class changes along the
        # fan-out (a gossip fan-out is one class), never per target. The
        # draws themselves stay per target, in target order.
        classify = self._classify
        class_models = self._class_models
        if classify is None:
            link_classes, resolved = repeat(None, count), None
        else:
            link_classes, resolved = classify(sender, targets), _UNRESOLVED

        # The fault hook draws from its own dedicated rng (never the
        # network stream), so a fault-free multicast makes exactly the
        # draws it always did. A fault-lost target joins the shared drop
        # bookkeeping; a delay-spiked target simply lands in a different
        # latency-class batch (it "splits out" of its class); a
        # duplicated target appears ``copies`` times in its batch, so
        # survivors still share one engine entry per latency class.
        fault_rng = self._fault_rng
        fault_loss = fault_dup = fault_spike = 0

        drop_counts: dict[str, int] = {}
        batches: dict[float, list[int]] = {}
        for target, link_class in zip(targets, link_classes):
            if check_perceived and failure_model.transmission_blocked(
                sender, target, now, rng
            ):
                reason = DROP_PERCEIVED_FAILED
            elif check_partition and not partition_model.connected(
                sender, target, now
            ):
                reason = DROP_PARTITIONED
            elif random_draw() >= p_success:
                reason = DROP_CHANNEL_LOSS
            else:
                if link_class is not resolved:
                    resolved = link_class
                    sample, fault_hook = class_models.get(
                        link_class
                    ) or self._models_for(link_class)
                delay = fixed_delay if fixed_delay is not None else sample(rng)
                copies = 1
                if fault_hook is not None:
                    copies, faulted_delay = fault_hook(
                        sender, target, delay, fault_rng
                    )
                    if faulted_delay != delay and copies:
                        fault_spike += 1
                        if tracing:
                            trace.record(
                                now, "net.fault", sender, target,
                                message_kind=kind, reason=FAULT_DELAY_SPIKE,
                            )
                        delay = faulted_delay
                if copies == 1:
                    batch = batches.get(delay)
                    if batch is None:
                        batches[delay] = [target]
                    else:
                        batch.append(target)
                    continue
                if copies:
                    fault_dup += copies - 1
                    if tracing:
                        trace.record(
                            now, "net.fault", sender, target,
                            message_kind=kind, reason=FAULT_DUPLICATE,
                        )
                    batches.setdefault(delay, []).extend((target,) * copies)
                    continue
                fault_loss += 1
                reason = DROP_FAULT_LOSS
            drop_counts[reason] = drop_counts.get(reason, 0) + 1
            if tracing:
                trace.record(
                    now, "net.dropped", sender, target,
                    message_kind=kind, reason=reason,
                )
        for reason, dropped in drop_counts.items():
            stats.record_dropped_many(message, reason, dropped)
        if fault_loss:
            stats.record_fault(FAULT_LOSS, fault_loss)
        if fault_dup:
            stats.record_fault(FAULT_DUPLICATE, fault_dup)
        if fault_spike:
            stats.record_fault(FAULT_DELAY_SPIKE, fault_spike)

        # Each latency class becomes one applied array-batch entry — no
        # per-destination closures, and pending/processed still count every
        # destination (with zero latency — the dominant case — the whole
        # fan-out lands in the engine's FIFO bucket). A lone target (every
        # target, under a continuous latency model) is delivered like a
        # send: no tuple, no batch machinery.
        if self._wave:
            self._flush_wave()
        scheduled = 0
        dispatch = self._transport.dispatch
        deliver = self._deliver
        deliver_batch = self._deliver_batch
        # repro-lint: allow[DET003]: batches is keyed by latency class in first-occurrence order; sorting would reorder same-time deliveries and break bit-identity
        for delay, batch in batches.items():
            size = len(batch)
            scheduled += size
            if size == 1:
                dispatch(delay, deliver, (sender, batch[0], message))
            else:
                dispatch(
                    delay,
                    deliver_batch,
                    (sender, tuple(batch), message),
                    count=size,
                )
        return scheduled

    def _deliver(self, sender: int, target: int, message: Message) -> None:
        static_dead = self._static_dead
        if static_dead is None:
            dead = not self._failure_model.is_alive(target, self._clock.now)
        else:
            dead = target in static_dead
        if dead:
            self._drop(message, sender, target, DROP_DEAD_TARGET)
            return
        self.stats.record_delivered(message)
        if self.trace.enabled:
            self.trace.record(
                self._clock.now, "net.delivered", sender, target,
                message_kind=message.kind,
            )
        actor = self._actors.get(target)
        if actor is not None:
            actor.handle_message(message)
        else:
            self._block_for(target).handle_batch(sender, (target,), message)

    def _deliver_batch(
        self, sender: int, targets: tuple[int, ...], message: Message
    ) -> None:
        """Deliver one message to every surviving target of a batch.

        Target liveness is evaluated for the whole batch at the shared
        delivery timestamp, then live targets receive the message in
        order; statistics are recorded in bulk.
        """
        now = self._clock.now
        failure_model = self._failure_model
        static_dead = self._static_dead
        stats = self.stats
        trace = self.trace
        tracing = trace.enabled
        kind = message.kind
        if static_dead is not None and not tracing:
            alive = targets
            if static_dead:
                alive = [
                    target for target in targets if target not in static_dead
                ]
                stats.record_dropped_many(
                    message, DROP_DEAD_TARGET, len(targets) - len(alive)
                )
        else:
            alive = []
            dead = 0
            for target in targets:
                if failure_model.is_alive(target, now):
                    alive.append(target)
                else:
                    dead += 1
                    if tracing:
                        trace.record(
                            now, "net.dropped", sender, target,
                            message_kind=kind, reason=DROP_DEAD_TARGET,
                        )
            stats.record_dropped_many(message, DROP_DEAD_TARGET, dead)
        stats.record_delivered_many(message, len(alive))
        if tracing:
            for target in alive:
                trace.record(
                    now, "net.delivered", sender, target, message_kind=kind
                )
        if not alive:
            return
        if not self._blocks:
            actors = self._actors
            for target in alive:
                actors[target].handle_message(message)
            return
        block = self._span_block(alive)
        if block is not None:
            block[2].handle_batch(sender, tuple(alive), message)
        else:
            self._dispatch_mixed(sender, alive, message)

    def _dispatch_wave(self, wave: _Wave) -> None:
        """Send ``wave`` as one transport entry at the clean channel's
        delay."""
        wave.handle = self._transport.dispatch(
            self._latency.delay, self._deliver_wave, (wave,), count=wave.count
        )

    def _flush_wave(self) -> None:
        """Send the fan-outs collected so far as their own wave, ahead of
        the dispatch about to be made, and keep collecting in a new one."""
        self._dispatch_wave(self._wave)
        self._wave = _Wave()

    def _deliver_wave(self, wave: _Wave) -> None:
        """Deliver every sub-batch of ``wave`` in order — per sub-batch what
        :meth:`_deliver_batch` does per entry — while collecting the
        clean-channel fan-outs its receivers issue into the next wave."""
        self._wave = _Wave()
        done = 0
        try:
            static_dead = self._static_dead
            if static_dead is None or self.trace.enabled:
                # The channel stopped being clean after this wave left.
                for sub_batch in wave:
                    done += 1
                    self._deliver_batch(*sub_batch)
                return
            stats = self.stats
            actors = self._actors
            for sender, targets, message in wave:
                done += 1
                alive = targets
                if static_dead:
                    alive = tuple(
                        [target for target in targets if target not in static_dead]
                    )
                    stats.record_dropped_many(
                        message, DROP_DEAD_TARGET, len(targets) - len(alive)
                    )
                stats.record_delivered_many(message, len(alive))
                if not alive:
                    continue
                block = self._block_cache
                if (
                    block is not None
                    and block[0] <= min(alive)
                    and max(alive) < block[1]
                ):
                    block[2].handle_batch(sender, alive, message)
                elif not self._blocks:
                    for target in alive:
                        actors[target].handle_message(message)
                else:
                    block = self._span_block(alive)
                    if block is not None:
                        block[2].handle_batch(sender, alive, message)
                    else:
                        self._dispatch_mixed(sender, alive, message)
        except BaseException:
            # The rest goes back at this wave's own place, ahead of the
            # fan-outs collected so far: the per-fan-out order.
            if done < len(wave):
                rest = _Wave(wave[done:])
                rest.handle = wave.handle
                self._transport.requeue(
                    wave.handle, self._deliver_wave, (rest,), rest.count
                )
            raise
        finally:
            collected = self._wave
            self._wave = None
            if collected:
                self._dispatch_wave(collected)

    def _dispatch_mixed(
        self, sender: int, alive: Iterable[int], message: Message
    ) -> None:
        """Dispatch a delivered batch that does not sit in one block.

        Consecutive targets owned by the same block actor are flushed as
        one ``handle_batch`` call; per-pid actors still get
        ``handle_message`` individually, in order.
        """
        actors = self._actors
        run_actor: BlockActor | None = None
        run: list[int] = []
        for target in alive:
            actor = actors.get(target)
            if actor is not None:
                if run:
                    run_actor.handle_batch(sender, tuple(run), message)
                    run_actor, run = None, []
                actor.handle_message(message)
                continue
            block = self._block_for(target)
            if block is run_actor:
                run.append(target)
            else:
                if run:
                    run_actor.handle_batch(sender, tuple(run), message)
                run_actor, run = block, [target]
        if run:
            run_actor.handle_batch(sender, tuple(run), message)

    def _drop(self, message: Message, sender: int, target: int, reason: str) -> None:
        self.stats.record_dropped(message, reason)
        if self.trace.enabled:
            self.trace.record(
                self._clock.now, "net.dropped", sender, target,
                message_kind=message.kind, reason=reason,
            )

    def __repr__(self) -> str:
        return (
            f"Network({len(self)} actors, p_success={self.p_success}, "
            f"{self.failure_model!r})"
        )
