"""The transport seam: ``Engine`` and ``QueueTransport`` behind one contract.

The network's sender-side pipeline (and hence every RNG draw) is
transport-independent, and the two transports execute the surviving
deliveries in the same order — both keep them in a
:class:`~repro.sim.engine.CallQueue`, ``(time, seq)`` on the engine,
``(due, enqueue order)`` in the queue. ``TestTransportContract`` runs one
set of expectations over both; the equivalence tests drive identical
workloads through both and require bit-identical results including the
network RNG's final state.
"""

import contextlib
import gc
import random
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.columnar import ColumnarStaticSystem
from repro.core.group_actor import ColumnarGroupActor
from repro.core.system import DaMulticastSystem
from repro.errors import SchedulingError
from repro.failures import StillbornFailures
from repro.metrics.collector import DeliveryTracker
from repro.net.faults import BernoulliLoss, DuplicateModel, FaultPipeline
from repro.net.latency import (
    ConstantLatency,
    UniformLatency,
    ZERO_LATENCY,
)
from repro.net.control import Ping
from repro.net.message import Message
from repro.net.network import Network
from repro.net.partitions import FullyConnected, StaticPartition
from repro.net.transport import QueueTransport, Transport
from repro.runtime import SimulationHarness
from repro.sim.engine import Engine

from net_actors import register_actors


class Recorder:
    def __init__(self, pid: int):
        self.pid = pid
        self.inbox: list[Message] = []

    def handle_message(self, message: Message) -> None:
        self.inbox.append(message)


class TickClock:
    """Minimal manual clock for transport unit tests."""

    def __init__(self):
        self.now = 0.0


class EngineDriver:
    """An engine as its own transport, run to idle."""

    def __init__(self):
        self.transport = self._engine = Engine()

    def drain(self) -> int:
        return self._engine.run_until_idle()

    def cancel(self, handle) -> None:
        self._engine.cancel(handle)

    @property
    def pending(self) -> int:
        return self._engine.pending

    @property
    def executed(self) -> int:
        return self._engine.processed


class QueueDriver:
    """A QueueTransport over a tick clock, pumped to exhaustion."""

    def __init__(self):
        self.transport = QueueTransport(TickClock())

    def drain(self) -> int:
        executed = 0
        while (due := self.transport.next_due()) is not None:
            executed += self.transport.pump(due)
        return executed

    def cancel(self, handle) -> None:
        # nothing cancels a live delivery; the queue under it can
        self.transport._queue.cancel(handle)

    @property
    def pending(self) -> int:
        return self.transport.pending

    @property
    def executed(self) -> int:
        return self.transport.executed


@pytest.fixture(params=[EngineDriver, QueueDriver], ids=["engine", "queue"])
def driver(request):
    return request.param()


class TestTransportContract:
    def test_is_a_transport_returning_the_one_entry_shape(self, driver):
        assert isinstance(driver.transport, Transport)
        handle = driver.transport.dispatch(0.0, lambda: None, ())
        assert type(handle) is list
        assert len(handle) == 5
        assert driver.pending == 1
        driver.drain()
        assert driver.pending == 0 and driver.executed == 1

    def test_fifo_at_equal_time(self, driver):
        seen = []
        for label in (1, 2, 3):
            driver.transport.dispatch(1.0, seen.append, (label,))
        assert driver.pending == 3
        assert driver.drain() == 3
        assert seen == [1, 2, 3]
        assert driver.pending == 0
        assert driver.executed == 3

    def test_due_order_over_enqueue_order(self, driver):
        seen = []
        driver.transport.dispatch(2.0, seen.append, ("late",))
        driver.transport.dispatch(1.0, seen.append, ("early",))
        driver.transport.dispatch(2.0, seen.append, ("later",))
        driver.drain()
        assert seen == ["early", "late", "later"]

    def test_cascade_joins_the_same_drain(self, driver):
        seen = []

        def first():
            seen.append("first")
            driver.transport.dispatch(0.0, seen.append, ("cascade",))

        driver.transport.dispatch(0.0, first, ())
        driver.transport.dispatch(0.0, seen.append, ("second",))
        assert driver.drain() == 3
        assert seen == ["first", "second", "cascade"]

    def test_cancel(self, driver):
        class Payload:
            pass

        payload = Payload()
        ref = weakref.ref(payload)
        seen = []
        doomed = driver.transport.dispatch(1.0, seen.append, (payload,), count=4)
        driver.transport.dispatch(1.0, seen.append, ("kept",))
        del payload
        assert driver.pending == 5
        driver.cancel(doomed)
        assert driver.pending == 1
        gc.collect()
        assert ref() is None  # released at once, not when the entry is popped
        driver.cancel(doomed)  # idempotent
        assert driver.pending == 1
        assert driver.drain() == 1
        assert seen == ["kept"]
        driver.cancel(doomed)  # and still a no-op after the drain
        assert driver.pending == 0

    def test_cancel_after_fire_is_a_noop(self, driver):
        handle = driver.transport.dispatch(0.0, lambda: None, (), count=2)
        driver.drain()
        driver.cancel(handle)
        assert driver.executed == 2
        assert driver.pending == 0

    def test_count_accounting(self, driver):
        calls = []
        driver.transport.dispatch(0.0, lambda a, b: calls.append((a, b)), (1, 2), count=5)
        assert driver.pending == 5
        assert driver.drain() == 5
        assert calls == [(1, 2)]  # one physical call, five logical deliveries
        assert driver.executed == 5
        assert driver.pending == 0

    @pytest.mark.parametrize(
        "delay, count",
        [(float("nan"), 1), (float("inf"), 1), (-1.0, 1), (0.0, 0), (1.0, -3)],
    )
    def test_bad_dispatch_rejected_and_not_counted(self, driver, delay, count):
        with pytest.raises(SchedulingError):
            driver.transport.dispatch(delay, lambda: None, (), count=count)
        assert driver.pending == 0
        assert driver.drain() == 0

    def test_accounting_survives_a_raising_delivery(self, driver):
        """Everything dispatched is executed or pending — also after a
        delivery raised half-way through a drain."""
        seen = []

        def boom():
            raise RuntimeError("delivery failed")

        driver.transport.dispatch(0.0, seen.append, ("a",), count=2)
        driver.transport.dispatch(0.0, boom, (), count=3)
        driver.transport.dispatch(0.0, seen.append, ("b",), count=4)
        with pytest.raises(RuntimeError):
            driver.drain()
        assert seen == ["a"]
        assert (driver.executed, driver.pending) == (5, 4)
        assert driver.drain() == 4
        assert seen == ["a", "b"]
        assert (driver.executed, driver.pending) == (9, 0)


class OpenPartition(FullyConnected):
    """Connects every pair and draws nothing, like its base — but it is not
    ``FullyConnected`` itself, so the network takes the general channel:
    one transport entry per fan-out instead of one per wave."""


class OrderTracker(DeliveryTracker):
    """The full tracker, also keeping every first delivery in order."""

    def __init__(self):
        super().__init__()
        self.order = []

    def record_delivery(self, pid, event, time, hops=None):
        self.order.append((pid, event.event_id, time, hops))
        super().record_delivery(pid, event, time, hops)


class Boom(RuntimeError):
    pass


def _ledger(stats):
    """Every counter of ``stats``: ``as_dict()`` leaves the per-sender load
    and the drops by kind out."""
    return {
        **stats.as_dict(),
        "events_sent_by_sender": dict(stats.events_sent_by_sender),
        "dropped_by_kind": dict(stats.dropped_by_kind),
    }


def _flood(
    host, transport_kind, *, per_fan_out, seed, p_success, delay, dead,
    raise_at=(), act=None,
):
    """Two publications at the same instant over groups of 6 and 40, run
    to idle; everything observable, and the counters at every raise.

    ``raise_at`` makes pid 7 raise on those receptions (1-based); each
    raise is caught and the run resumed. ``act(network, message)`` runs on
    pid 7's first reception, before pid 7 handles it.
    """
    tracker = OrderTracker()
    models = dict(
        seed=seed,
        p_success=p_success,
        latency=ConstantLatency(delay),
        failure_model=StillbornFailures(dead),
        tracker=tracker,
    )
    if host == "object":
        system = DaMulticastSystem(
            mode="static", harness=SimulationHarness(**models)
        )
    else:
        system = ColumnarStaticSystem(**models)
    engine = system.engine
    inner = engine if transport_kind == "engine" else QueueTransport(engine)
    transport = RecordingTransport(inner)
    network = system.network
    network._transport = transport  # both hosts build their own network
    if per_fan_out:
        network.install_partition_model(OpenPartition())
    system.add_group(".t1", 6)
    system.add_group(".t1.t2", 40)
    system.finalize_static_membership()

    def on_reception(count, message):
        if count in raise_at:
            raise Boom(count)
        if act is not None and count == 1:
            act(network, message)

    with contextlib.ExitStack() as stack:
        if raise_at or act is not None:
            stack.enter_context(reception_hook(7, on_reception))
        counters, raised = _publish_and_run(system, engine, inner)
    rngs = system.harness.rngs
    observed = (
        tracker.order,
        _ledger(system.stats),
        {name: rngs.stream(name).getstate() for name in sorted(rngs._streams)},
        counters,
        raised,
    )
    if host == "object":
        system.close()
    return observed, len(transport.handles)


@contextlib.contextmanager
def reception_hook(pid, on_reception):
    """Call ``on_reception(count, message)`` on each reception of ``pid``
    (``count`` from 1), just before its group's block actor handles it:
    the targets of a batch ahead of ``pid`` are handled first, so a raise
    there cuts the batch at ``pid``, as a delivery raising at ``pid`` does."""
    handle_batch = ColumnarGroupActor.handle_batch
    receptions = 0

    def hooked(actor, sender, targets, message):
        nonlocal receptions
        start = 0
        for index, target in enumerate(targets):
            if target == pid:
                if index > start:
                    handle_batch(actor, sender, targets[start:index], message)
                start = index
                receptions += 1
                on_reception(receptions, message)
        handle_batch(actor, sender, targets[start:], message)

    ColumnarGroupActor.handle_batch = hooked
    try:
        yield
    finally:
        ColumnarGroupActor.handle_batch = handle_batch


def _publish_and_run(system, engine, inner):
    """Publish on both groups and run to idle, resuming after every
    ``Boom``; the counters at the end and at every raise."""
    system.publish(".t1.t2")
    system.publish(".t1")

    def counters():
        if inner is engine:
            return engine.processed, engine.pending
        return inner.dispatched, inner.executed, inner.pending

    raised = []
    while True:
        try:
            if inner is engine:
                engine.run_until_idle()
            else:
                while (due := inner.next_due()) is not None:
                    engine.run(until=due)
                    inner.pump(due)
            break
        except Boom:
            raised.append(counters())
    return counters(), raised


class TestWavesMatchOneEntryPerFanOut:
    """The clean channel's waves against the general channel's one entry
    per fan-out, on the same scenario: the same deliveries in the same
    order, the same statistics, every RNG stream in the same end state, the
    same event counts."""

    @given(
        host=st.sampled_from(["object", "columnar"]),
        transport_kind=st.sampled_from(["engine", "queue"]),
        seed=st.integers(0, 2**16),
        p_success=st.sampled_from([1.0, 0.85]),
        delay=st.sampled_from([0.0, 0.3]),
        dead=st.sets(st.integers(1, 45).filter(lambda pid: pid != 6), max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_trajectory(
        self, host, transport_kind, seed, p_success, delay, dead
    ):
        run = dict(seed=seed, p_success=p_success, delay=delay, dead=dead)
        waves, wave_entries = _flood(
            host, transport_kind, per_fan_out=False, **run
        )
        fan_outs, fan_out_entries = _flood(
            host, transport_kind, per_fan_out=True, **run
        )
        assert waves == fan_outs
        assert wave_entries < fan_out_entries  # the waves did run

    @pytest.mark.parametrize("transport_kind", ["engine", "queue"])
    @pytest.mark.parametrize("delay", [0.0, 0.3])
    def test_a_delivery_raising_mid_wave_loses_nothing(
        self, transport_kind, delay
    ):
        """The undelivered rest of the wave goes back ahead of the fan-outs
        collected so far: at every raise the counters are the per-fan-out
        path's (so ``dispatched == executed + pending``), and resuming
        ends in its state."""
        run = dict(
            seed=5, p_success=0.85, delay=delay, dead={3, 20}, raise_at=(1, 3)
        )
        waves, _ = _flood("object", transport_kind, per_fan_out=False, **run)
        fan_outs, _ = _flood("object", transport_kind, per_fan_out=True, **run)
        assert waves == fan_outs
        raised = waves[-1]
        assert len(raised) == 2
        for counters in raised:
            if transport_kind == "queue":
                dispatched, executed, pending = counters
                assert dispatched == executed + pending
            assert counters[-1] > 0  # the flood was cut mid-way


class PerceivedFailures:
    """Declares no dead set: ``dead`` is down, and each transmission is lost
    to a perceived failure with probability 0.2, drawn from the network's
    stream."""

    def __init__(self, dead):
        self.dead = frozenset(dead)

    def is_alive(self, pid, now):
        return pid not in self.dead

    def transmission_blocked(self, sender, target, now, rng):
        return rng.random() < 0.2


class MidWave:
    """What pid 7 does on its first reception, inside a clean wave's
    delivery: one model replaced, or one point-to-point send."""

    def __init__(self, kind):
        self.kind = kind
        self.fault_rng = random.Random(42)

    def __call__(self, network, message):
        if self.kind == "failure_model":
            # two more pids down, and perception drawn per transmission
            dead = network.failure_model.static_dead | {21, 22}
            network.failure_model = PerceivedFailures(dead)
        elif self.kind == "partition_model":
            network.install_partition_model(StaticPartition([range(6, 26)]))
        elif self.kind == "faults":
            network.install_faults(
                FaultPipeline([BernoulliLoss(0.2), DuplicateModel(0.3)]),
                self.fault_rng,
            )
        else:
            network.send(7, 8, message)


def _mid_wave_runs(kind, transport_kind, **run):
    """Require the wave run of one scenario in which pid 7 does ``kind`` on
    its first reception to be its one-entry-per-fan-out run, the fault
    stream's end state included; its counters and both entry counts."""
    observed = []
    for per_fan_out in (False, True):
        act = MidWave(kind)
        flood, entries = _flood(
            "object", transport_kind, per_fan_out=per_fan_out, act=act, **run
        )
        observed.append(((flood, act.fault_rng.getstate()), entries))
    (waves, wave_entries), (fan_outs, fan_out_entries) = observed
    assert waves == fan_outs
    return waves[0][1], wave_entries, fan_out_entries


MID_WAVE_KINDS = ["failure_model", "partition_model", "faults", "send"]


class TestMidWaveChangesMatchOneEntryPerFanOut:
    """A model replaced, or a ``send`` made, while a clean wave is being
    delivered: the fan-outs tallied so far are counted, later ones take
    the path a fan-out outside any wave takes (a ``send`` only flushes the
    wave collected so far, and later fan-outs join the next one), and the
    run is the one-entry-per-fan-out run — deliveries in the same order,
    every counter, every RNG stream and the fault stream in the same end
    state."""

    @pytest.mark.parametrize("kind", MID_WAVE_KINDS)
    @given(
        transport_kind=st.sampled_from(["engine", "queue"]),
        seed=st.integers(0, 2**16),
        p_success=st.sampled_from([1.0, 0.85]),
        delay=st.sampled_from([0.0, 0.3]),
        dead=st.sets(
            st.integers(1, 45).filter(lambda pid: pid not in (6, 7)),
            max_size=6,
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_same_trajectory(
        self, kind, transport_kind, seed, p_success, delay, dead
    ):
        _mid_wave_runs(
            kind, transport_kind,
            seed=seed, p_success=p_success, delay=delay, dead=dead,
        )

    @pytest.mark.parametrize("kind", MID_WAVE_KINDS[:3])
    @pytest.mark.parametrize("transport_kind", ["engine", "queue"])
    def test_the_new_model_takes_effect_within_the_wave(
        self, kind, transport_kind
    ):
        stats, wave_entries, fan_out_entries = _mid_wave_runs(
            kind, transport_kind, seed=0, p_success=0.85, delay=0.0,
            dead={3, 20},
        )
        assert wave_entries < fan_out_entries  # the waves did run
        if kind == "failure_model":
            assert stats["dropped_by_reason"]["perceived_failed"] == 14
        elif kind == "partition_model":
            assert stats["dropped_by_reason"]["partitioned"] == 55
        else:
            assert sum(stats["faults_by_reason"].values()) == 44


class TestDefaultTransport:
    def test_default_transport_is_the_clock(self):
        engine = Engine()
        net = Network(engine, random.Random(0))
        assert net._transport is engine
        register_actors(net, [Recorder(0), Recorder(1)])
        net.send(0, 1, Ping(sender=0, nonce=1))
        assert engine.pending == 1

    def test_plain_clock_rejected(self):
        with pytest.raises(SchedulingError, match="QueueTransport"):
            Network(TickClock(), random.Random(0))


class TestQueueTransport:
    def test_pump_follows_the_clock(self):
        clock = TickClock()
        transport = QueueTransport(clock)
        seen = []
        transport.dispatch(0.0, seen.append, ("now",))
        transport.dispatch(3.0, seen.append, ("later",))
        assert transport.next_due() == 0.0
        assert transport.pump() == 1
        assert seen == ["now"]
        assert transport.pending == 1
        assert transport.next_due() == 3.0
        clock.now = 5.0
        assert transport.pump() == 1
        assert seen == ["now", "later"]
        assert transport.next_due() is None

    def test_dispatched_counts_every_enqueue(self):
        transport = QueueTransport(TickClock())
        transport.dispatch(0.0, lambda: None, (), count=5)
        transport._queue.cancel(transport.dispatch(1.0, lambda: None, ()))
        assert transport.dispatched == 6
        assert transport.pending == 5
        assert transport.pump() == 5
        assert transport.executed == 5

    def test_infinite_delay_rejected_instead_of_never_due(self):
        """An entry at +inf would never be due: ``pending`` never reaches 0
        and a drain waits on it forever."""
        transport = QueueTransport(TickClock())
        with pytest.raises(SchedulingError, match="finite"):
            transport.dispatch(float("inf"), lambda: None, ())
        assert transport.pending == 0
        assert transport.next_due() is None

    def test_on_enqueue_fires_per_dispatch(self):
        woken = []
        transport = QueueTransport(TickClock(), on_enqueue=lambda: woken.append(1))
        transport.dispatch(0.0, lambda: None, ())
        transport.dispatch(0.0, lambda: None, ())
        assert woken == [1, 1]

    def test_on_virtual_engine_clock(self):
        """A QueueTransport can ride an Engine as its time source."""
        engine = Engine()
        transport = QueueTransport(engine)
        seen = []
        transport.dispatch(0.0, seen.append, ("a",))
        transport.pump()
        assert seen == ["a"]

    def test_a_closed_harness_leaves_nothing_queued(self):
        """Closing empties the delivery queue as it empties the engine's:
        a delivery still queued at close() would reach a network that
        forgot its blocks, and a later pump() crash on it."""
        clock = TickClock()
        transport = QueueTransport(clock)
        system = DaMulticastSystem(
            mode="static",
            harness=SimulationHarness(seed=1, clock=clock, transport=transport),
        )
        system.add_group(".t1", 5)
        system.add_group(".t1.t2", 20)
        system.finalize_static_membership()
        system.publish(".t1.t2")
        assert transport.pending > 0
        system.close()
        assert transport.pending == 0
        assert transport.next_due() is None
        assert transport.pump() == 0


class RecordingTransport:
    """Passes dispatches through, keeping the handles for cancellation and
    which of them were cancelled before they ran."""

    def __init__(self, inner):
        self.inner = inner
        #: the queue the entries live on: the engine, or the live queue's
        self.queue = inner if isinstance(inner, Engine) else inner._queue
        self.handles = []
        self.cancelled: set[int] = set()

    def cancel(self, handle) -> None:
        if handle[2] is not None:
            self.cancelled.add(id(handle))
        self.queue.cancel(handle)

    def dispatch(self, delay, fn, args, *, count=1):
        handle = self.inner.dispatch(delay, fn, args, count=count)
        self.handles.append(handle)
        return handle

    def requeue(self, handle, fn, args, count):
        self.inner.requeue(handle, fn, args, count)


def engine_transport(engine):
    return engine


def _run_workload(
    transport_factory,
    *,
    seed,
    p_success,
    latency,
    sends,
    cancels=(),
    drain_after=None,
):
    """Drive one deterministic workload and snapshot everything observable.

    ``cancels`` is ``(after operation, which handle)`` pairs, the handle
    picked among those dispatched so far; ``drain_after`` the operations to
    drain after (default: every one — the live runtime's publish-then-drain
    discipline; the last always drains).
    """
    engine = Engine()
    rng = random.Random(seed)
    inner = transport_factory(engine)
    transport = RecordingTransport(inner)
    net = Network(
        engine,
        rng,
        p_success=p_success,
        latency=latency,
        transport=transport,
    )
    actors = [Recorder(i) for i in range(6)]
    register_actors(net, actors)
    last = len(sends) - 1
    for index, (kind, sender, targets) in enumerate(sends):
        if kind == "send":
            net.send(sender, targets[0], Ping(sender=sender, nonce=index))
        else:
            net.multicast(sender, targets, Ping(sender=sender, nonce=index))
        for after, which in cancels:
            if after == index and transport.handles:
                transport.cancel(transport.handles[which % len(transport.handles)])
        if drain_after is not None and index not in drain_after and index != last:
            continue
        if inner is engine:
            engine.run_until_idle()
        else:
            while inner.next_due() is not None:
                inner.pump(inner.next_due())
    inboxes = [
        [(m.sender, m.nonce) for m in actor.inbox] for actor in actors
    ]
    # a handle has run or been cancelled once its call is released
    fates = [
        (h[2] is None, id(h) in transport.cancelled) for h in transport.handles
    ]
    return inboxes, fates, rng.getstate(), net.stats.as_dict()


WORKLOAD = [
    ("multicast", 0, (1, 2, 3, 4, 5)),
    ("send", 1, (0,)),
    ("multicast", 2, (0, 1, 3)),
    ("multicast", 3, (0, 1, 2, 4, 5)),
    ("send", 4, (2,)),
    ("multicast", 5, (0, 4)),
]


def _both(**workload):
    return (
        _run_workload(engine_transport, **workload),
        _run_workload(QueueTransport, **workload),
    )


class TestTransportEquivalence:
    @pytest.mark.parametrize("p_success", [1.0, 0.85, 0.5])
    def test_queue_matches_engine_bit_identically(self, p_success):
        """Same workload, same seed → same inboxes, same RNG state, same
        stats on both transports (zero latency: the replay-oracle case)."""
        engine_run, queue_run = _both(
            seed=7, p_success=p_success, latency=ZERO_LATENCY, sends=WORKLOAD
        )
        assert engine_run == queue_run

    def test_queue_matches_engine_with_latency_classes(self):
        """Nonzero sampled latencies: deliveries split into latency-class
        batches; the queue's (due, seq) order must match the engine's."""
        engine_run, queue_run = _both(
            seed=11,
            p_success=0.9,
            latency=UniformLatency(0.1, 2.0),
            sends=WORKLOAD,
        )
        assert engine_run == queue_run

    @given(
        seed=st.integers(0, 2**16),
        p_success=st.floats(0.3, 1.0, allow_nan=False),
        latency=st.sampled_from(
            [ZERO_LATENCY, ConstantLatency(0.5), UniformLatency(0.1, 2.0)]
        ),
        cancels=st.lists(
            st.tuples(st.integers(0, len(WORKLOAD) - 1), st.integers(0, 31)),
            max_size=6,
        ),
        drain_after=st.sets(st.integers(0, len(WORKLOAD) - 1)),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence_property(
        self, seed, p_success, latency, cancels, drain_after
    ):
        """Cancellations interleaved with the sends, drains only now and
        then: same execution order, same handle fates, same RNG end-state,
        same NetworkStats."""
        engine_run, queue_run = _both(
            seed=seed,
            p_success=p_success,
            latency=latency,
            sends=WORKLOAD,
            cancels=cancels,
            drain_after=drain_after,
        )
        assert engine_run == queue_run
