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

* **validation by span** — a fan-out must lie in one block: when its
  smallest and largest target fall in one registered ``[start, stop)``,
  every pid between them is registered and owned by that actor, so the
  fan-out validates with two comparisons. Otherwise it names its first
  unregistered pid (:class:`~repro.errors.UnknownActor`) or, every pid
  being registered, spans two blocks
  (:class:`~repro.errors.NetworkError`) — raised before any statistic is
  recorded;
* **bulk statistics** — ``record_sent_many`` / ``record_dropped_many`` /
  ``record_delivered_many``, once per outcome class instead of once per
  destination (and, for the fan-outs issued inside a clean wave, once per
  wave — see "Waves" below);
* **the clean channel** — when nothing installed draws randomness or
  depends on the time — a failure model that declares its dead set
  (``static_dead``, :mod:`repro.failures.model`: ``AlwaysAlive``'s is
  empty, ``StillbornFailures``' is the paper's Figs. 8–10 setting),
  ``FullyConnected``, ``ConstantLatency``, no fault hook — the
  sender-side pass (stages 2–5) is one membership test on the
  sender and then exactly the loss draw per target, in target order, and
  stage 6 one latency class: one list comprehension, one
  ``record_dropped_many``, and the survivors join the current *wave*
  (below); at delivery the batch is filtered against the same set in one
  comprehension. Whether the channel is clean is decided from what the
  installed models are and declare, each time one is installed
  (``failure_model``, :meth:`Network.install_partition_model`,
  ``latency``, :meth:`Network.install_faults`) — there is no switch to set, and a
  failure model that declares nothing (churn, perceived failures, a
  user's own) never takes it;
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
* **one call per batch** — the live targets of a batch lie in the one
  block the fan-out was validated against, so their delivery is a single
  ``handle_batch`` call.

Waves (the clean channel's transport entries)
---------------------------------------------

A flood is a few hops deep and thousands of fan-outs wide, so the clean
channel pays one transport entry per *wave*, not per fan-out. While a
clean-channel entry is being delivered, each :meth:`Network.multicast` its
receivers issue does at the call only what the draws and the next wave
need: the validation by span, the dead-sender test, the loss draw per
target in target order, and appending its survivors to the current wave
as one ``(sender, targets, message)`` sub-batch. Its counts — the send
attempts by kind and scope, the channel-loss drops, the sender's load —
are noted as ``(message, sent, scheduled)`` in the delivery's *tally*,
and :meth:`~repro.net.stats.NetworkStats.record_fanouts` folds the tally
into ``stats`` in one pass when the delivery returns or raises, in the
same ``finally`` that dispatches the collected wave; so ``stats`` is exact
whenever no wave is being delivered. Whether the channel is clean is
read once, when the delivery starts. Installing a model during the
delivery folds the tally first, and the fan-outs after it are counted at
the call (and take the general channel if it is no longer clean); a
sub-batch delivered after the failure model was replaced is delivered as
the general channel's ``_deliver_batch`` would, against the new model. A
fan-out from a dead sender is counted at the call as well.

When the entry's deliveries finish, the wave is dispatched as **one**
entry, ``count`` = its survivors, at the channel's single
``latency.delay``; its delivery walks the sub-batches in order, doing per
sub-batch what the general channel's ``_deliver_batch`` does per entry
(the ``static_dead`` filter, the bulk statistics, the one
``handle_batch`` call). A fan-out issued
outside any delivery — a publish — is a wave of one, counted at the
call. Any other dispatch the network makes while a wave is being
collected (a :meth:`Network.send`, a general-channel fan-out) first sends
the fan-outs collected so far as their own wave, and the fan-outs after
it join a new one, so nothing the network dispatches ever moves past a
wave.

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
draws and every member's selection stream (``process/<pid>`` or
``group/<topic>``). The argument needs one
thing of the actors — that a delivery dispatches only through the
network (no in-repo actor schedules a timer while handling a message).
Counters see the difference only mid-run: ``stats`` lacks the tally
while a wave is delivered, ``Engine.processed`` moves a wave at a time
(``max_events`` can overshoot by a wave's ``count``), and a delivery
that raises leaves the wave's undelivered rest requeued at the wave's
own place (:meth:`~repro.sim.engine.CallQueue.requeue`), ahead of the
fan-outs already collected, which are dispatched as a wave — the
per-fan-out order again.

Ordering caveat (documented, not observable by well-behaved actors):
batched deliveries evaluate target liveness at the shared delivery
timestamp — identical outcomes unless delivering to one target changes
ground-truth liveness of a co-delivered target at that same instant,
which no in-repo model does.

A network holds blocks only: :meth:`Network.register_block` registers a
*block actor* for a contiguous pid range ``[start, stop)``, which
receives whole delivery batches through ``handle_batch(sender, targets,
message)``. A static system registers one per group (daMulticast) or one
over every pid (the baselines); dynamic daMulticast is one
:class:`~repro.core.process.ProcessBlock` that grows per join
(:meth:`Network.extend_block`).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import repeat
from typing import Iterable, Protocol, Sequence, runtime_checkable

from repro.errors import ConfigError, NetworkError, SchedulingError, UnknownActor
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
class BlockActor(Protocol):
    """One actor standing in for a contiguous pid range, handed delivery
    batches with the resolved target pids."""

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
        self._random_draw = rng.random
        self.p_success = p_success
        #: the wave being collected while a wave is delivered, else None
        self._wave: _Wave | None = None
        #: ``(message, sent, scheduled)`` per clean-channel fan-out a wave's
        #: delivery has issued, folded into ``stats`` when it ends; else None
        self._tally: list[tuple[Message, int, int]] | None = None
        self._link_classifier: LinkClassifier | None = None
        self._latency = latency
        self._partition_model = partition_model or FullyConnected()
        self._faults = self._fault_hook = None
        self.failure_model = failure_model or AlwaysAlive()
        self.install_faults(faults, fault_rng)  # also resolves the channel
        self.stats = NetworkStats()
        #: block actors: sorted, non-overlapping (start, stop, actor) ranges
        self._blocks: list[tuple[int, int, BlockActor]] = []
        self._block_starts: list[int] = []
        #: last resolved block — fan-outs target one group, so this hits
        self._block_cache: tuple[int, int, BlockActor] | None = None

    # ------------------------------------------------------------------
    # Failures and partitions (what a model declares is read once per
    # model, not per send)
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
        self._resolve_models()

    def install_partition_model(self, model: PartitionModel) -> None:
        """Replace the partition model."""
        self._partition_model = model
        self._resolve_models()

    # ------------------------------------------------------------------
    # Latency and link classes (resolved once per model, not per send)
    # ------------------------------------------------------------------
    @property
    def latency(self) -> LatencyModel:
        """The installed latency model."""
        return self._latency

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
        self._resolve_models()

    def _resolve_models(self) -> None:
        """Re-derive, after a model or the classifier changed, whether the
        channel is clean and whether transmissions are classified at all,
        and forget the per-class models. A wave being delivered stops
        tallying first, so its later fan-outs are counted at the call."""
        self._end_tally()
        #: nothing installed draws randomness or reads the clock (see
        #: "Batched fast path" in the module docstring)
        self._clean = (
            self._static_dead is not None
            and type(self._partition_model) is FullyConnected
            and type(self._latency) is ConstantLatency
            and self._fault_hook is None
        )
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
            self._resolve_models()
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
        self._resolve_models()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_block(self, actor: BlockActor, start: int, stop: int) -> None:
        """Attach one block actor covering the pid range ``[start, stop)``.

        The range must be non-empty and must not overlap another block.
        Deliveries to any pid in the range reach
        ``actor.handle_batch(sender, targets, message)``.
        """
        self._require_free(start, stop)
        block = (start, stop, actor)
        self._blocks.append(block)
        self._blocks.sort(key=lambda block: block[0])
        self._block_starts = [block[0] for block in self._blocks]
        # the next send or fan-out most likely targets this block
        self._block_cache = block

    def extend_block(self, actor: BlockActor, stop: int) -> None:
        """Grow ``actor``'s block to end at ``stop`` (a dynamic system's
        grows per join): the pids added must overlap no other block."""
        for index, (start, old_stop, owner) in enumerate(self._blocks):
            if owner is actor:
                break
        else:
            raise ConfigError(f"{actor!r} is not a registered block actor")
        self._require_free(old_stop, stop)
        block = self._blocks[index] = (start, stop, actor)
        self._block_cache = block

    def _require_free(self, start: int, stop: int) -> None:
        """Raise :class:`ConfigError` unless ``[start, stop)`` is non-empty
        and overlaps no registered block."""
        if stop <= start:
            raise ConfigError(f"empty pid block [{start}, {stop})")
        for b_start, b_stop, _ in self._blocks:
            if start < b_stop and b_start < stop:
                raise ConfigError(
                    f"pid block [{start}, {stop}) overlaps [{b_start}, {b_stop})"
                )

    def close(self) -> None:
        """Forget every registered block (idempotent).

        Actors point at their network, so the registry is what ties a
        finished simulation into one reference cycle; without it the
        actors are freed as soon as their owner lets go of them.
        Statistics stay readable.
        """
        self._blocks.clear()
        self._block_starts.clear()
        self._block_cache = None

    def _block_for(self, pid: int) -> BlockActor | None:
        """The block actor owning ``pid``, or None; its block becomes the
        cache."""
        index = bisect_right(self._block_starts, pid) - 1
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
        None (two blocks, a gap, an unknown pid).

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
        """Raise :class:`UnknownActor` unless every target is registered,
        and :class:`NetworkError` for a fan-out that spans two blocks."""
        if self._span_block(targets) is not None:
            return
        for target in targets:  # name the first unknown pid
            if target not in self:
                raise UnknownActor(f"no actor registered with pid {target}")
        raise NetworkError(
            f"fan-out to pids {min(targets)}..{max(targets)} spans more "
            "than one pid block"
        )

    def __contains__(self, pid: int) -> bool:
        # the block last resolved answers without the frame of _block_for
        block = self._block_cache
        if block is not None and block[0] <= pid < block[1]:
            return True
        return self._block_for(pid) is not None

    def __len__(self) -> int:
        return sum(stop - start for start, stop, _ in self._blocks)

    # ------------------------------------------------------------------
    # Liveness (convenience passthroughs used by protocols & metrics)
    # ------------------------------------------------------------------
    def is_alive(self, pid: int) -> bool:
        """Ground-truth liveness of ``pid`` right now."""
        return self._failure_model.is_alive(pid, self._clock.now)

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
        stats = self.stats
        stats.record_sent(message)

        failure_model = self._failure_model
        if not failure_model.is_alive(sender, now):
            stats.record_dropped(message, DROP_DEAD_SENDER)
            return False
        if failure_model.transmission_blocked(sender, target, now, self._rng):
            stats.record_dropped(message, DROP_PERCEIVED_FAILED)
            return False
        if not self._partition_model.connected(sender, target, now):
            stats.record_dropped(message, DROP_PARTITIONED)
            return False
        if self._rng.random() >= self.p_success:
            stats.record_dropped(message, DROP_CHANNEL_LOSS)
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
                stats.record_fault(FAULT_LOSS)
                stats.record_dropped(message, DROP_FAULT_LOSS)
                return False
            if faulted_delay != delay:
                stats.record_fault(FAULT_DELAY_SPIKE)
                delay = faulted_delay
            if copies > 1:
                stats.record_fault(FAULT_DUPLICATE, copies - 1)
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

        A clean-channel fan-out issued while a wave is being delivered does
        at the call only what the draws and the next wave need — the
        validation, the dead-sender test, the loss draw per target and its
        place in the next wave. Its send, drop and per-sender counts are in
        ``stats`` once that delivery returns or raises ("Waves" in the
        module docstring).
        """
        if type(targets) is not list:
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
        count = len(targets)
        tally = self._tally
        if tally is not None and sender not in self._static_dead:
            # A clean wave is being delivered: the channel was resolved when
            # its delivery began, and the counts are folded when it ends.
            random_draw = self._random_draw
            p_success = self.p_success
            survivors = tuple(
                [target for target in targets if random_draw() < p_success]
            )
            scheduled = len(survivors)
            tally.append((message, count, scheduled))
            if scheduled:
                self._wave.append((sender, survivors, message))
            return scheduled

        stats = self.stats
        stats.record_sent_many(message, count)
        failure_model = self._failure_model
        static_dead = self._static_dead
        partition_model = self._partition_model
        latency = self._latency
        fault_hook = self._fault_hook
        rng = self._rng
        random_draw = rng.random
        p_success = self.p_success

        if self._clean:
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
        if not failure_model.is_alive(sender, now):
            stats.record_dropped_many(message, DROP_DEAD_SENDER, count)
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
                    batches.setdefault(delay, []).extend((target,) * copies)
                    continue
                fault_loss += 1
                reason = DROP_FAULT_LOSS
            drop_counts[reason] = drop_counts.get(reason, 0) + 1
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
            self.stats.record_dropped(message, DROP_DEAD_TARGET)
            return
        self.stats.record_delivered(message)
        # the block last resolved answers without the frame of _block_for
        block = self._block_cache
        if block is not None and block[0] <= target < block[1]:
            block[2].handle_batch(sender, (target,), message)
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
        static_dead = self._static_dead
        stats = self.stats
        if static_dead is None:
            failure_model = self._failure_model
            now = self._clock.now
            alive = [
                target for target in targets
                if failure_model.is_alive(target, now)
            ]
            stats.record_dropped_many(
                message, DROP_DEAD_TARGET, len(targets) - len(alive)
            )
        else:
            alive = targets
            if static_dead:
                alive = [
                    target for target in targets if target not in static_dead
                ]
                stats.record_dropped_many(
                    message, DROP_DEAD_TARGET, len(targets) - len(alive)
                )
        stats.record_delivered_many(message, len(alive))
        if alive:
            # the fan-out was validated to lie in one block
            self._block_for(alive[0]).handle_batch(sender, tuple(alive), message)

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

    def _end_tally(self) -> None:
        """Count the fan-outs tallied during a wave's delivery; later ones
        are counted at the call."""
        tally = self._tally
        if tally is not None:
            self._tally = None
            self.stats.record_fanouts(tally)

    def _deliver_wave(self, wave: _Wave) -> None:
        """Deliver every sub-batch of ``wave`` in order — per sub-batch what
        :meth:`_deliver_batch` does per entry — while collecting the
        clean-channel fan-outs its receivers issue into the next wave and
        tallying their counts."""
        self._wave = _Wave()
        if self._clean:
            self._tally = []
        done = 0
        try:
            static_dead = self._static_dead
            if static_dead is None:
                # The channel stopped being clean after this wave left.
                for sub_batch in wave:
                    done += 1
                    self._deliver_batch(*sub_batch)
                return
            stats = self.stats
            for sender, targets, message in wave:
                done += 1
                if self._static_dead is not static_dead:
                    # the failure model was replaced during this delivery
                    self._deliver_batch(sender, targets, message)
                    continue
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
                # a fan-out was validated to lie in one block, so its first
                # live target names it
                block = self._block_cache
                if block is not None and block[0] <= alive[0] < block[1]:
                    block[2].handle_batch(sender, alive, message)
                else:
                    self._block_for(alive[0]).handle_batch(sender, alive, message)
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
            self._end_tally()
            collected = self._wave
            self._wave = None
            if collected:
                self._dispatch_wave(collected)
