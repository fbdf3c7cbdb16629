"""Unit + property tests for the batched multicast transport path.

The central contract: under the same seed, ``Network.multicast(sender,
targets, message)`` is observably equivalent to ``for t in targets:
Network.send(sender, t, message)`` — identical delivery sets, drop
reasons, :class:`NetworkStats` counters, *and* RNG end-state — across
arbitrary pipelines (loss, perceived failures, partitions, latency).
"""

import pathlib
import random
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import repro
from repro.errors import ConfigError, NetworkError, UnknownActor
from repro.failures import ChurnSchedule, DynamicFailures, StillbornFailures
from repro.net import (
    BernoulliLoss,
    ConstantLatency,
    DelaySpike,
    DuplicateModel,
    FaultPipeline,
    GilbertElliott,
    LinkClassFaults,
    LinkClassLatency,
    Network,
    StaticPartition,
    UniformLatency,
)
from repro.core.events import Event, EventId
from repro.net.control import Ping
from repro.net.message import EventMessage, Message, Scope
from repro.sim import Engine
from repro.topics.topic import Topic

from net_actors import register_actors

N_ACTORS = 8


class Recorder:
    """Minimal actor capturing everything delivered to it."""

    def __init__(self, pid: int):
        self.pid = pid
        self.inbox: list[Message] = []

    def handle_message(self, message: Message) -> None:
        self.inbox.append(message)


class Forwarder(Recorder):
    """Re-multicasts its first reception — exercises nested fan-outs."""

    def __init__(self, pid: int, network: "Network", fan_to: list[int]):
        super().__init__(pid)
        self._network = network
        self._fan_to = fan_to

    def handle_message(self, message: Message) -> None:
        first = not self.inbox
        super().handle_message(message)
        if first and self._fan_to:
            self._network.multicast(self.pid, self._fan_to, message)


def make_net(n=N_ACTORS, actor_cls=Recorder, **kwargs):
    engine = Engine()
    net = Network(engine, random.Random(0), **kwargs)
    actors = [actor_cls(i) for i in range(n)]
    register_actors(net, actors)
    return engine, net, actors


class TestMulticastBasics:
    def test_delivers_to_every_target(self):
        engine, net, actors = make_net()
        scheduled = net.multicast(0, [1, 2, 3], Ping(sender=0, nonce=7))
        engine.run()
        assert scheduled == 3
        for pid in (1, 2, 3):
            assert len(actors[pid].inbox) == 1
            assert actors[pid].inbox[0].nonce == 7
        assert actors[4].inbox == []

    def test_counts_one_send_per_target(self):
        engine, net, _ = make_net()
        net.multicast(0, [1, 2, 3, 4], Ping(sender=0, nonce=1))
        engine.run()
        assert net.stats.sent_by_kind["ping"] == 4
        assert net.stats.delivered_by_kind["ping"] == 4

    def test_empty_target_list_is_noop(self):
        engine, net, _ = make_net()
        assert net.multicast(0, [], Ping(sender=0, nonce=1)) == 0
        assert net.stats.total_sent == 0
        assert engine.pending == 0

    def test_duplicate_targets_each_count(self):
        engine, net, actors = make_net()
        net.multicast(0, [1, 1, 1], Ping(sender=0, nonce=1))
        engine.run()
        assert len(actors[1].inbox) == 3
        assert net.stats.sent_by_kind["ping"] == 3

    def test_unknown_target_raises_before_any_send(self):
        _, net, _ = make_net()
        with pytest.raises(UnknownActor):
            net.multicast(0, [1, 99], Ping(sender=0, nonce=1))
        assert net.stats.total_sent == 0

    def test_dead_sender_drops_everything(self):
        engine, net, actors = make_net(failure_model=StillbornFailures({0}))
        net.multicast(0, [1, 2, 3], Ping(sender=0, nonce=1))
        engine.run()
        assert all(actors[pid].inbox == [] for pid in (1, 2, 3))
        assert net.stats.dropped_by_reason["dead_sender"] == 3
        assert net.stats.sent_by_kind["ping"] == 3  # attempts still paid

    def test_dead_targets_dropped_at_delivery(self):
        engine, net, actors = make_net(failure_model=StillbornFailures({2, 3}))
        net.multicast(0, [1, 2, 3, 4], Ping(sender=0, nonce=1))
        engine.run()
        assert len(actors[1].inbox) == 1 and len(actors[4].inbox) == 1
        assert net.stats.dropped_by_reason["dead_target"] == 2
        assert net.stats.delivered_by_kind["ping"] == 2

    def test_partitioned_targets_dropped(self):
        engine, net, actors = make_net(
            partition_model=StaticPartition([[0, 1], [2, 3]])
        )
        net.multicast(0, [1, 2, 3], Ping(sender=0, nonce=1))
        engine.run()
        assert len(actors[1].inbox) == 1
        assert actors[2].inbox == [] and actors[3].inbox == []
        assert net.stats.dropped_by_reason["partitioned"] == 2

    def test_single_engine_entry_for_zero_latency_fanout(self):
        engine, net, _ = make_net()
        net.multicast(0, [1, 2, 3, 4, 5], Ping(sender=0, nonce=1))
        # One array-batch call standing for five logical events:
        # per-destination accounting, a single queued call.
        assert engine.pending == 5
        assert len(engine._bucket) == 1 and not engine._heap
        engine.run()
        assert engine.processed == 5 and engine.pending == 0
        assert net.stats.delivered_by_kind["ping"] == 5

    def test_latency_delays_the_whole_batch(self):
        engine, net, actors = make_net(latency=ConstantLatency(5.0))
        net.multicast(0, [1, 2], Ping(sender=0, nonce=1))
        engine.run(until=4.0)
        assert actors[1].inbox == [] and actors[2].inbox == []
        engine.run()
        assert len(actors[1].inbox) == 1 and len(actors[2].inbox) == 1
        assert engine.now == 5.0

    def test_stats_match_outcomes(self):
        engine = Engine()
        net = Network(
            engine,
            random.Random(0),
            failure_model=StillbornFailures({2}),
        )
        register_actors(net, [Recorder(pid) for pid in range(4)])
        net.multicast(0, [1, 2, 3], Ping(sender=0, nonce=1))
        engine.run()
        assert net.stats.total_sent == 3
        assert sum(net.stats.delivered_by_kind.values()) == 2
        assert net.stats.dropped_by_reason == {"dead_target": 1}


class BlockRecorder:
    """Minimal block actor capturing every delivered (sender, targets)."""

    def __init__(self):
        self.batches: list[tuple[int, tuple[int, ...], Message]] = []

    def handle_batch(self, sender, targets, message):
        self.batches.append((sender, targets, message))


class TestBlockActors:
    def test_multicast_into_block_is_one_handle_batch_call(self):
        engine = Engine()
        net = Network(engine, random.Random(0))
        block = BlockRecorder()
        net.register_block(block, 10, 20)
        net.multicast(0, [11, 13, 17], Ping(sender=0, nonce=4))
        engine.run()
        assert len(block.batches) == 1
        sender, targets, message = block.batches[0]
        assert sender == 0 and targets == (11, 13, 17)
        assert message.nonce == 4
        assert net.stats.delivered_by_kind["ping"] == 3

    def test_send_into_block_delivers_singleton_batch(self):
        engine = Engine()
        net = Network(engine, random.Random(0))
        block = BlockRecorder()
        net.register_block(block, 5, 8)
        net.send(0, 6, Ping(sender=0, nonce=1))
        engine.run()
        assert block.batches == [(0, (6,), block.batches[0][2])]

    def test_dead_block_targets_dropped_at_delivery(self):
        engine = Engine()
        net = Network(
            engine, random.Random(0), failure_model=StillbornFailures({11})
        )
        block = BlockRecorder()
        net.register_block(block, 10, 13)
        net.multicast(0, [10, 11, 12], Ping(sender=0, nonce=1))
        engine.run()
        assert block.batches[0][1] == (10, 12)
        assert net.stats.dropped_by_reason["dead_target"] == 1

    def test_registry_queries_cover_blocks(self):
        net = Network(Engine(), random.Random(0))
        block = BlockRecorder()
        net.register_block(block, 10, 13)
        assert 10 in net and 12 in net
        assert 13 not in net and 9 not in net and 0 not in net
        assert len(net) == 3
        assert net._block_for(11) is block

    def test_overlapping_registrations_rejected(self):
        net = Network(Engine(), random.Random(0))
        net.register_block(BlockRecorder(), 20, 30)
        with pytest.raises(ConfigError, match="overlaps"):
            net.register_block(BlockRecorder(), 25, 35)
        with pytest.raises(ConfigError, match="overlaps"):
            net.register_block(BlockRecorder(), 15, 21)
        with pytest.raises(ConfigError, match="empty"):
            net.register_block(BlockRecorder(), 40, 40)
        assert len(net) == 10
        actors = Network(Engine(), random.Random(0))
        register_actors(actors, [Recorder(11)])
        with pytest.raises(ConfigError, match="overlaps"):
            register_actors(actors, [Recorder(11)])
        assert len(actors) == 1

    def test_unknown_pid_outside_blocks_still_raises(self):
        net = Network(Engine(), random.Random(0))
        net.register_block(BlockRecorder(), 10, 13)
        with pytest.raises(UnknownActor):
            net.multicast(10, [10, 40], Ping(sender=10, nonce=1))


class TestExtendBlock:
    """A block grows in place (a dynamic system's, one pid per join)."""

    def test_extended_block_takes_the_new_pids_in_one_batch(self):
        engine = Engine()
        net = Network(engine, random.Random(0))
        block = BlockRecorder()
        net.register_block(block, 10, 12)
        net.extend_block(block, 14)
        assert 13 in net and 14 not in net and len(net) == 4
        assert net._block_cache == (10, 14, block)
        net.multicast(0, [10, 13, 11], Ping(sender=0, nonce=1))
        engine.run()
        assert [targets for _, targets, _ in block.batches] == [(10, 13, 11)]

    def test_extension_refuses_an_overlap(self):
        net = Network(Engine(), random.Random(0))
        grown, next_block = BlockRecorder(), BlockRecorder()
        net.register_block(grown, 10, 12)
        net.register_block(next_block, 14, 16)
        with pytest.raises(ConfigError, match=r"\[12, 15\) overlaps \[14, 16\)"):
            net.extend_block(grown, 15)
        with pytest.raises(ConfigError, match="empty"):
            net.extend_block(grown, 12)
        with pytest.raises(ConfigError, match="not a registered block"):
            net.extend_block(BlockRecorder(), 20)
        assert len(net) == 4 and 12 not in net
        assert net._block_for(11) is grown and net._block_for(14) is next_block

    def test_a_closed_network_forgets_every_block(self):
        net = Network(Engine(), random.Random(0))
        register_actors(net, [Recorder(0), Recorder(1)])
        net.close()
        assert len(net) == 0 and 0 not in net
        block = BlockRecorder()
        net.register_block(block, 0, 3)
        assert net._block_for(1) is block


# ----------------------------------------------------------------------
# Property: multicast == loop of sends, bit for bit, under any pipeline
# ----------------------------------------------------------------------

LATENCIES = st.sampled_from(
    [ConstantLatency(0.0), ConstantLatency(2.5), UniformLatency(0.0, 3.0)]
)

FAILURES = st.one_of(
    st.none(),
    st.builds(
        StillbornFailures,
        st.sets(st.integers(1, N_ACTORS - 1), max_size=3),
    ),
    st.builds(
        DynamicFailures,
        st.floats(0.0, 0.6),
    ),
)

PARTITIONS = st.one_of(
    st.none(),
    st.builds(
        lambda left: StaticPartition([sorted(left), []]),
        st.sets(st.integers(0, N_ACTORS - 1), max_size=4),
    ),
)

FANOUTS = st.lists(
    st.lists(st.integers(0, N_ACTORS - 1), min_size=0, max_size=6),
    min_size=1,
    max_size=4,
)


def _observe(engine, net, actors):
    return {
        "inboxes": [
            [(m.kind, m.sender, getattr(m, "nonce", None)) for m in actor.inbox]
            for actor in actors
        ],
        "stats": {
            "sent": dict(net.stats.sent_by_kind),
            "sent_by_sender": dict(net.stats.events_sent_by_sender),
            "delivered": dict(net.stats.delivered_by_kind),
            "dropped_reason": dict(net.stats.dropped_by_reason),
            "dropped_kind": dict(net.stats.dropped_by_kind),
        },
        "rng_state": net._rng.getstate(),
        "now": engine.now,
    }


@given(
    seed=st.integers(0, 2**32 - 1),
    p_success=st.floats(0.0, 1.0),
    latency=LATENCIES,
    failure_model=FAILURES,
    partition_model=PARTITIONS,
    fanouts=FANOUTS,
)
@settings(max_examples=120, deadline=None)
def test_multicast_same_seed_equivalent_to_send_loop(
    seed, p_success, latency, failure_model, partition_model, fanouts
):
    observations = []
    for batched in (False, True):
        engine = Engine()
        net = Network(
            engine,
            random.Random(seed),
            p_success=p_success,
            latency=latency,
            failure_model=failure_model,
            partition_model=partition_model,
        )
        actors = [Recorder(i) for i in range(N_ACTORS)]
        register_actors(net, actors)
        for nonce, targets in enumerate(fanouts):
            message = Ping(sender=0, nonce=nonce)
            if batched:
                net.multicast(0, targets, message)
            else:
                for target in targets:
                    net.send(0, target, message)
        engine.run()
        observations.append(_observe(engine, net, actors))
    loop, batch = observations
    assert batch == loop


class EventForwarder(Forwarder):
    """Re-multicasts its first reception as its own transmission: the
    event, one hop further, with itself as the sender."""

    def handle_message(self, message: EventMessage) -> None:
        first = not self.inbox
        Recorder.handle_message(self, message)
        if first and self._fan_to:
            self._network.multicast(
                self.pid,
                self._fan_to,
                EventMessage(
                    self.pid, message.event, message.scope, message.hops + 1
                ),
            )


@pytest.mark.parametrize("events", [False, True])
@given(seed=st.integers(0, 2**32 - 1), p_success=st.floats(0.5, 1.0))
@settings(max_examples=40, deadline=None)
def test_equivalence_holds_through_nested_forwarding(events, seed, p_success):
    """Cascading multicasts (receivers fanning out at delivery time)
    stay equivalent to cascades over the same seed — with events, each
    forwarder's sends are charged to it."""
    observations = []
    for batched in (False, True):
        engine = Engine()
        net = Network(engine, random.Random(seed), p_success=p_success)
        actor_cls = EventForwarder if events else Forwarder
        actors = [
            actor_cls(pid, net, fan_to=[(pid + 1) % 4, (pid + 2) % 4])
            for pid in range(4)
        ]
        register_actors(net, actors)
        if events:
            topic = Topic.parse(".t")
            event = Event(EventId(0, 1), topic, None, 0.0)
            message = EventMessage(0, event, Scope("intra", topic))
        else:
            message = Ping(sender=0, nonce=0)
        if batched:
            net.multicast(0, [1, 2], message)
        else:
            # The outer fan-out as a send loop; inner hops still batch —
            # mixing the two paths must not change the trajectory either.
            net.send(0, 1, message)
            net.send(0, 2, message)
        engine.run()
        observations.append(_observe(engine, net, actors))
    loop, batch = observations
    assert batch == loop


# ----------------------------------------------------------------------
# Block actors: the same contract on both multicast branches
# ----------------------------------------------------------------------
#
# Layout: two adjacent blocks [10,16) and [16,20), a gap of unregistered
# pids 20-29, a third block [30,34); the sender, pid 0, is no pid of the
# network (a sender is never looked up). A fan-out into blocks lies in one
# block (resolved by span); one that crosses into the adjacent block or
# jumps the gap is refused before anything is recorded.

BLOCK_RANGES = ((10, 16), (16, 20), (30, 34))
GAP_PID = 25
REGISTERED = tuple(
    pid for start, stop in BLOCK_RANGES for pid in range(start, stop)
)

#: a fan-out inside one block
BLOCK_FANOUT = st.sampled_from(BLOCK_RANGES).flatmap(
    lambda block: st.lists(
        st.integers(block[0], block[1] - 1), min_size=0, max_size=8
    )
)


def classify_by_target(sender, targets):
    """A link classifier answering all three ways within one fan-out of
    three or more pids: ``intra``, ``inter`` and unclassifiable (None →
    default models) by pid modulo 3."""
    return [("intra", "inter", None)[target % 3] for target in targets]


#: Each entry switches exactly one precondition of the clean branch off
#: (``clean`` leaves them all on), as Network keyword arguments —
#: ``link_classes`` switches two (latency and fault hook, both keyed by
#: link class) and carries the classifier ``make_block_net`` binds;
#: ``open_partition`` switches ``FullyConnected`` off with a partition that
#: connects every pair (one implicit island, no draws), so the general
#: channel runs with nothing that can drop or delay a message.
CHANNELS = {
    "clean": lambda: {},
    "open_partition": lambda: {"partition_model": StaticPartition([])},
    "fault_hook": lambda: {
        "faults": FaultPipeline([BernoulliLoss(0.3), DuplicateModel(0.3)]),
        "fault_rng": random.Random(99),
    },
    "latency": lambda: {"latency": UniformLatency(0.0, 3.0)},
    "failures": lambda: {"failure_model": StillbornFailures({12, 17, 31})},
    "partition": lambda: {
        "partition_model": StaticPartition([[0, 1, 10, 11, 16, 30], []])
    },
    "link_classes": lambda: {
        "latency": LinkClassLatency(
            UniformLatency(0.0, 3.0), {"inter": UniformLatency(2.0, 5.0)}
        ),
        "faults": LinkClassFaults(
            BernoulliLoss(0.3),
            {
                "inter": FaultPipeline(
                    [
                        GilbertElliott(0.3, 0.4, loss_good=0.1, loss_bad=0.8),
                        DelaySpike(0.3, extra=2.0),
                    ]
                )
            },
        ),
        "fault_rng": random.Random(99),
        "link_classifier": classify_by_target,
    },
}


def make_block_net(seed=0, p_success=1.0, channel="clean"):
    engine = Engine()
    kwargs = CHANNELS[channel]()
    link_classifier = kwargs.pop("link_classifier", None)
    net = Network(engine, random.Random(seed), p_success=p_success, **kwargs)
    if link_classifier is not None:
        net.bind_link_classifier(link_classifier)
    blocks = [BlockRecorder() for _ in BLOCK_RANGES]
    for block, (start, stop) in zip(blocks, BLOCK_RANGES):
        net.register_block(block, start, stop)
    return engine, net, blocks


def _observe_blocks(engine, net, blocks):
    inboxes = {}
    for block, (start, stop) in zip(blocks, BLOCK_RANGES):
        for _, targets, message in block.batches:
            for target in targets:
                assert start <= target < stop  # never another block's pid
                inboxes.setdefault(target, []).append(message.nonce)
    fault_rng = net._fault_rng
    return {
        "inboxes": inboxes,
        "stats": {
            "sent": dict(net.stats.sent_by_kind),
            "sent_by_sender": dict(net.stats.events_sent_by_sender),
            "delivered": dict(net.stats.delivered_by_kind),
            "dropped_reason": dict(net.stats.dropped_by_reason),
            "dropped_kind": dict(net.stats.dropped_by_kind),
            "faults": dict(net.stats.faults_by_reason),
        },
        "rng_state": net._rng.getstate(),
        "fault_rng_state": fault_rng.getstate() if fault_rng else None,
        "processed": engine.processed,
        "now": engine.now,
    }


@pytest.mark.parametrize("channel", sorted(CHANNELS))
@given(
    seed=st.integers(0, 2**32 - 1),
    p_success=st.floats(0.0, 1.0),
    fanouts=st.lists(BLOCK_FANOUT, min_size=1, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_block_multicast_equivalent_to_send_loop(
    channel, seed, p_success, fanouts
):
    observations = []
    for batched in (False, True):
        engine, net, blocks = make_block_net(seed, p_success, channel)
        for nonce, targets in enumerate(fanouts):
            message = Ping(sender=0, nonce=nonce)
            if batched:
                net.multicast(0, targets, message)
            else:
                for target in targets:
                    net.send(0, target, message)
        engine.run()
        observations.append(_observe_blocks(engine, net, blocks))
    loop, batch = observations
    assert batch == loop


#: Channels that keep a fan-out's survivors in one delivery batch.
ONE_BATCH_CHANNELS = sorted(
    set(CHANNELS) - {"latency", "fault_hook", "link_classes"}
)


class TestBlockFanouts:
    @pytest.mark.parametrize("channel", ONE_BATCH_CHANNELS)
    def test_single_block_fanout_is_one_handle_batch_call(self, channel):
        engine, net, blocks = make_block_net(channel=channel)
        net.multicast(0, [10, 11, 13, 15], Ping(sender=0, nonce=1))
        engine.run()
        assert len(blocks[0].batches) == 1
        assert blocks[1].batches == [] and blocks[2].batches == []
        (_, targets, _), = blocks[0].batches
        assert isinstance(targets, tuple)
        assert set(targets) <= {10, 11, 13, 15}

    def test_unsorted_single_block_fanout_keeps_target_order(self):
        engine, net, blocks = make_block_net()
        net.multicast(0, [33, 30, 32], Ping(sender=0, nonce=1))
        engine.run()
        assert [t for _, t, _ in blocks[2].batches] == [(33, 30, 32)]

    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    @pytest.mark.parametrize(
        "targets", [[10, 11, 16, 19], [15, 30, 33], [19, 16, 10]]
    )
    def test_fanout_across_blocks_raises_before_anything_is_recorded(
        self, channel, targets
    ):
        """Every pid is registered, but the fan-out crosses into the
        adjacent block or jumps the gap: refused, on the clean channel and
        on each general one, while every counter is still 0."""
        engine, net, blocks = make_block_net(channel=channel)
        rng_state = net._rng.getstate()
        with pytest.raises(NetworkError, match="more than one pid block"):
            net.multicast(0, targets, Ping(sender=0, nonce=1))
        assert net.stats.total_sent == 0
        assert net.stats.total_dropped == 0
        assert not net.stats.faults_by_reason
        assert engine.pending == 0
        assert net._rng.getstate() == rng_state
        assert all(block.batches == [] for block in blocks)

    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    @pytest.mark.parametrize(
        "targets", [[12, GAP_PID, 31], [GAP_PID], [19, 20], [9, 10], [31, 34]]
    )
    def test_unregistered_pid_raises_before_anything_is_recorded(
        self, channel, targets
    ):
        engine, net, blocks = make_block_net(channel=channel)
        rng_state = net._rng.getstate()
        with pytest.raises(UnknownActor):
            net.multicast(0, targets, Ping(sender=0, nonce=1))
        assert net.stats.total_sent == 0
        assert net.stats.total_dropped == 0
        assert not net.stats.faults_by_reason
        assert engine.pending == 0
        assert net._rng.getstate() == rng_state
        assert all(block.batches == [] for block in blocks)

    def test_block_registered_after_dispatch_leaves_the_batch_in_flight(self):
        engine = Engine()
        net = Network(engine, random.Random(0), latency=ConstantLatency(1.0))
        first = BlockRecorder()
        net.register_block(first, 10, 12)
        net.multicast(0, [10, 11], Ping(sender=0, nonce=1))
        late = BlockRecorder()
        net.register_block(late, 12, 14)
        engine.run()
        assert [t for _, t, _ in first.batches] == [(10, 11)]
        assert late.batches == []


# ----------------------------------------------------------------------
# One link classification per transmission call, shared by both models
# ----------------------------------------------------------------------


class CountingClassifier:
    """Records every consultation: (sender, the targets it was handed)."""

    def __init__(self):
        self.calls: list[tuple[int, tuple[int, ...]]] = []

    def __call__(self, sender, targets):
        self.calls.append((sender, tuple(targets)))
        return classify_by_target(sender, targets)


class TestLinkClassifierConsultation:
    def test_once_per_multicast_and_once_per_send(self):
        """Class-keyed latency *and* faults installed: one consultation per
        call, whole fan-out at once — not one per model per target."""
        engine, net, _ = make_block_net(channel="link_classes")
        classifier = CountingClassifier()
        net.bind_link_classifier(classifier)
        net.multicast(0, [10, 12, 11, 14], Ping(sender=0, nonce=1))
        assert classifier.calls == [(0, (10, 12, 11, 14))]
        net.send(0, 17, Ping(sender=0, nonce=2))
        assert classifier.calls[1:] == [(0, (17,))]
        engine.run()
        assert len(classifier.calls) == 2  # delivery classifies nothing

    @pytest.mark.parametrize("model", ["latency", "faults"])
    def test_once_with_a_single_class_keyed_model(self, model):
        kwargs = CHANNELS["link_classes"]()
        del kwargs["link_classifier"]
        if model == "latency":
            del kwargs["faults"], kwargs["fault_rng"]
        else:
            del kwargs["latency"]
        _, net, _ = make_net(**kwargs)
        classifier = CountingClassifier()
        net.bind_link_classifier(classifier)
        net.multicast(0, [1, 2, 3], Ping(sender=0, nonce=1))
        net.send(0, 4, Ping(sender=0, nonce=2))
        assert classifier.calls == [(0, (1, 2, 3)), (0, (4,))]

    @pytest.mark.parametrize(
        "channel", sorted(set(CHANNELS) - {"link_classes"})
    )
    def test_never_without_a_class_keyed_model(self, channel):
        """The clean channel never reaches it; the other general channels
        have nothing keyed by class to ask it for."""
        engine, net, _ = make_block_net(channel=channel)
        classifier = CountingClassifier()
        net.bind_link_classifier(classifier)
        net.multicast(0, [10, 12, 11, 14], Ping(sender=0, nonce=1))
        net.send(0, 17, Ping(sender=0, nonce=2))
        engine.run()
        assert classifier.calls == []

    def test_dead_sender_returns_before_classifying(self):
        kwargs = CHANNELS["link_classes"]()
        del kwargs["link_classifier"]
        engine, net, _ = make_net(
            failure_model=StillbornFailures({0}), **kwargs
        )
        classifier = CountingClassifier()
        net.bind_link_classifier(classifier)
        net.multicast(0, [1, 2, 3], Ping(sender=0, nonce=1))
        engine.run()
        assert classifier.calls == []
        assert net.stats.dropped_by_reason["dead_sender"] == 3

    def test_installing_a_class_keyed_model_later_starts_consulting(self):
        _, net, _ = make_net()
        classifier = CountingClassifier()
        net.bind_link_classifier(classifier)
        net.multicast(0, [1, 2], Ping(sender=0, nonce=1))
        assert classifier.calls == []
        net.install_faults(
            LinkClassFaults(BernoulliLoss(0.0)), random.Random(3)
        )
        net.multicast(0, [1, 2], Ping(sender=0, nonce=2))
        net.send(0, 1, Ping(sender=0, nonce=3))
        assert classifier.calls == [(0, (1, 2)), (0, (1,))]
        net.install_faults(None)
        net.send(0, 1, Ping(sender=0, nonce=4))
        assert len(classifier.calls) == 2


# ----------------------------------------------------------------------
# Stillborn failures ride the clean channel — and are still the send loop
# ----------------------------------------------------------------------
#
# A failure model that declares ``static_dead`` (repro.failures.model) is
# answered by set membership: the sender once per fan-out, the targets in
# one comprehension at delivery. The pids above, registered either as
# blocks or as per-pid actors (one ProcessBlock per range), random dead
# sets — a dead *sender* and an all-dead fan-out included — on the clean
# channel and, under a partition model that connects every pair
# (``StaticPartition([])``: one implicit island, no draws, not
# ``FullyConnected``), on the general one.


class OrderedRecorder(Recorder):
    """A per-pid actor that also logs into one network-wide delivery log."""

    def __init__(self, pid: int, log: list):
        super().__init__(pid)
        self._log = log

    def handle_message(self, message: Message) -> None:
        super().handle_message(message)
        self._log.append((self.pid, message.nonce))


class OrderedBlockRecorder(BlockRecorder):
    def __init__(self, log: list):
        super().__init__()
        self._log = log

    def handle_batch(self, sender, targets, message):
        super().handle_batch(sender, targets, message)
        self._log.extend((target, message.nonce) for target in targets)


def _run_stillborn(
    seed, p_success, dead, general, delay, blocks, fanouts, batched
):
    engine = Engine()
    net = Network(
        engine,
        random.Random(seed),
        p_success=p_success,
        latency=ConstantLatency(delay),
        failure_model=StillbornFailures(dead),
        partition_model=StaticPartition([]) if general else None,
    )
    order: list[tuple[int, int]] = []
    if blocks:
        recorders = [OrderedBlockRecorder(order) for _ in BLOCK_RANGES]
        for block, (start, stop) in zip(recorders, BLOCK_RANGES):
            net.register_block(block, start, stop)
    else:
        recorders = [OrderedRecorder(pid, order) for pid in REGISTERED]
        for start, stop in BLOCK_RANGES:
            register_actors(
                net, [actor for actor in recorders if start <= actor.pid < stop]
            )
    for nonce, (sender, targets) in enumerate(fanouts):
        message = Ping(sender=sender, nonce=nonce)
        if batched:
            net.multicast(sender, targets, message)
        else:
            for target in targets:
                net.send(sender, target, message)
    engine.run()
    if blocks:
        observed = _observe_blocks(engine, net, recorders)
    else:
        observed = _observe(engine, net, recorders)
    observed["order"] = order
    return observed


STILLBORN_FANOUTS = st.lists(
    st.tuples(st.sampled_from(REGISTERED), BLOCK_FANOUT),
    min_size=1,
    max_size=4,
)


@given(
    seed=st.integers(0, 2**32 - 1),
    p_success=st.floats(0.0, 1.0),
    dead=st.sets(st.sampled_from(REGISTERED)),
    general=st.booleans(),
    delay=st.sampled_from([0.0, 2.5]),
    blocks=st.booleans(),
    fanouts=STILLBORN_FANOUTS,
)
@example(  # a dead sender: every target dropped, no draw
    seed=1, p_success=0.5, dead={10}, general=False, delay=0.0, blocks=True,
    fanouts=[(10, [11, 12, 13]), (11, [10, 14])],
)
@example(  # an all-dead fan-out, then one with a dead target
    seed=2, p_success=1.0, dead={11, 12, 13}, general=False, delay=0.0,
    blocks=True, fanouts=[(10, [11, 12, 13]), (10, [11, 10])],
)
@example(  # the same on the general channel (no perception calls)
    seed=2, p_success=1.0, dead={11, 12, 13}, general=True, delay=2.5,
    blocks=True, fanouts=[(10, [11, 12, 13]), (11, [30, 31])],
)
@example(  # per-pid actors: a dead sender and an all-dead fan-out
    seed=3, p_success=1.0, dead={10, 31, 32}, general=False, delay=0.0,
    blocks=False, fanouts=[(10, [11, 12]), (11, [31, 32])],
)
@settings(max_examples=150, deadline=None)
def test_stillborn_multicast_equivalent_to_send_loop(
    seed, p_success, dead, general, delay, blocks, fanouts
):
    loop, batch = (
        _run_stillborn(
            seed, p_success, dead, general, delay, blocks, fanouts, batched
        )
        for batched in (False, True)
    )
    assert batch == loop
    dropped = batch["stats"]["dropped_reason"]
    attempts_by_dead_senders = sum(
        len(targets) for sender, targets in fanouts if sender in dead
    )
    assert dropped.get("dead_sender", 0) == attempts_by_dead_senders
    assert all(pid not in dead for pid, _ in batch["order"])


class CallCounting:
    """Counts the failure-model calls the network makes."""

    def __init__(self, failed=()):
        self.failed = frozenset(failed)
        self.calls = 0

    def is_alive(self, pid, now):
        self.calls += 1
        return pid not in self.failed

    def transmission_blocked(self, sender, target, now, rng):
        self.calls += 1
        return False


class DeclaredCallCounting(CallCounting):
    """The same model with the declaration: eligible for the clean channel."""

    def __init__(self, failed=()):
        super().__init__(failed)
        self.static_dead = self.failed


def _package_frames(run) -> int:
    """Python frames entered under ``src/repro/`` while ``run()`` executes
    (comprehension frames left out: CPython 3.12 inlines them)."""
    package = str(pathlib.Path(repro.__file__).resolve().parent)
    frames = 0

    def profiler(frame, event, arg):
        nonlocal frames
        code = frame.f_code
        if (
            event == "call"
            and code.co_filename.startswith(package)
            and code.co_name != "<listcomp>"
        ):
            frames += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return frames


class TestStillbornChannelCost:
    TARGETS = [1, 2, 3, 4, 5, 6]

    def _fanout_frames(self, failure_model) -> int:
        engine, net, _ = make_net(failure_model=failure_model)

        def run():
            net.multicast(0, self.TARGETS, Ping(sender=0, nonce=1))
            engine.run()

        frames = _package_frames(run)
        assert net.stats.total_sent == len(self.TARGETS)
        return frames

    def test_stillborn_fanout_costs_the_clean_channel_plus_one_frame(self):
        """Exact: the one frame is ``record_dropped_many(DROP_DEAD_TARGET)``
        at delivery — no ``is_alive``/``transmission_blocked`` frame per
        target, however many targets there are."""
        clean = self._fanout_frames(None)  # AlwaysAlive
        assert self._fanout_frames(StillbornFailures({2, 5})) == clean + 1
        # nobody dead: nothing to filter, nothing to record
        assert self._fanout_frames(StillbornFailures(())) == clean

    def test_dead_sender_on_the_clean_channel_draws_nothing(self):
        engine, net, actors = make_net(
            failure_model=StillbornFailures({0}), p_success=0.5
        )
        state = net._rng.getstate()
        assert net.multicast(0, self.TARGETS, Ping(sender=0, nonce=1)) == 0
        engine.run()
        assert net._rng.getstate() == state
        assert dict(net.stats.dropped_by_reason) == {
            "dead_sender": len(self.TARGETS)
        }
        assert all(not actor.inbox for actor in actors)

    def test_declared_model_is_never_called(self):
        model = DeclaredCallCounting({2, 5})
        engine, net, actors = make_net(failure_model=model)
        net.multicast(0, self.TARGETS, Ping(sender=0, nonce=1))
        net.send(0, 2, Ping(sender=0, nonce=2))  # _deliver reads the set too
        engine.run()
        # send() itself asks the model about its sender and the perception;
        # the fan-out and both deliveries asked nothing
        assert model.calls == 2
        assert net.stats.dropped_by_reason["dead_target"] == 3
        assert [len(actor.inbox) for actor in actors] == [0, 1, 0, 1, 1, 0, 1, 0]

    def test_undeclared_model_takes_the_general_channel(self):
        """Pinned: only the declaration opens the clean channel — a third
        model cannot slip onto it by looking like one of the built-ins."""
        model = CallCounting({2, 5})
        engine, net, _ = make_net(failure_model=model)
        net.multicast(0, self.TARGETS, Ping(sender=0, nonce=1))
        engine.run()
        # the sender's liveness once, then perception at transmission and
        # liveness at delivery for every target
        assert model.calls == 1 + 2 * len(self.TARGETS)
        assert net.stats.dropped_by_reason["dead_target"] == 2

    @pytest.mark.parametrize(
        "model", [ChurnSchedule(), DynamicFailures(0.3)], ids=["churn", "dynamic"]
    )
    def test_time_varying_and_perceived_models_declare_nothing(self, model):
        assert not hasattr(model, "static_dead")
