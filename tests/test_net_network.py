"""Unit tests for the Network transmission pipeline."""

import pathlib
import random
import sys

import pytest

import repro
from repro.errors import ConfigError, UnknownActor
from repro.failures import DynamicFailures, StillbornFailures
from repro.failures.churn import ChurnSchedule
from repro.net import BernoulliLoss, ConstantLatency, Network, StaticPartition
from repro.net.stats import NetworkStats
from repro.net.message import Message, Ping
from repro.sim import Engine

PACKAGE = str(pathlib.Path(repro.__file__).resolve().parent)
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>"}


class Recorder:
    """Minimal actor capturing everything delivered to it."""

    def __init__(self, pid: int):
        self.pid = pid
        self.inbox: list[Message] = []

    def handle_message(self, message: Message) -> None:
        self.inbox.append(message)


def make_net(**kwargs):
    engine = Engine()
    net = Network(engine, random.Random(0), **kwargs)
    actors = [Recorder(i) for i in range(4)]
    for actor in actors:
        net.register(actor)
    return engine, net, actors


class TestRegistration:
    def test_register(self):
        _, net, actors = make_net()
        assert 2 in net
        assert len(net) == 4
        assert 4 not in net and -1 not in net

    def test_duplicate_pid_rejected(self):
        _, net, _ = make_net()
        with pytest.raises(ConfigError):
            net.register(Recorder(0))

    def test_send_to_unknown_raises(self):
        _, net, _ = make_net()
        with pytest.raises(UnknownActor):
            net.send(0, 99, Ping(sender=0, nonce=1))


class TestDelivery:
    def test_reliable_delivery(self):
        engine, net, actors = make_net()
        net.send(0, 1, Ping(sender=0, nonce=7))
        engine.run()
        assert len(actors[1].inbox) == 1
        assert actors[1].inbox[0].nonce == 7

    def test_stats_count_sent_and_delivered(self):
        engine, net, _ = make_net()
        net.send(0, 1, Ping(sender=0, nonce=1))
        engine.run()
        assert net.stats.sent_by_kind["ping"] == 1
        assert net.stats.delivered_by_kind["ping"] == 1

    def test_each_network_counts_its_own_traffic(self):
        engine, net, _ = make_net()
        _, other, _ = make_net()
        assert isinstance(net.stats, NetworkStats)
        assert net.stats is not other.stats
        net.send(0, 1, Ping(sender=0, nonce=1))
        engine.run()
        assert net.stats.total_sent == 1 and other.stats.total_sent == 0
        with pytest.raises(TypeError, match="stats"):
            Network(engine, random.Random(0), stats=NetworkStats())

    def test_latency_delays_delivery(self):
        engine, net, actors = make_net(latency=ConstantLatency(5.0))
        net.send(0, 1, Ping(sender=0, nonce=1))
        engine.run(until=4.0)
        assert actors[1].inbox == []
        engine.run()
        assert len(actors[1].inbox) == 1
        assert engine.now == 5.0

    def test_lossy_channel_drops_some(self):
        engine, net, actors = make_net(p_success=0.5)
        for _ in range(200):
            net.send(0, 1, Ping(sender=0, nonce=1))
        engine.run()
        delivered = len(actors[1].inbox)
        assert 60 <= delivered <= 140  # ~100 expected
        assert net.stats.dropped_by_reason["channel_loss"] == 200 - delivered

    def test_p_success_zero_drops_all(self):
        engine, net, actors = make_net(p_success=0.0)
        net.send(0, 1, Ping(sender=0, nonce=1))
        engine.run()
        assert actors[1].inbox == []

    def test_invalid_p_success(self):
        with pytest.raises(ConfigError):
            make_net(p_success=1.5)


class TestFailures:
    def test_dead_target_drops_at_delivery(self):
        engine, net, actors = make_net(failure_model=StillbornFailures({1}))
        net.send(0, 1, Ping(sender=0, nonce=1))
        engine.run()
        assert actors[1].inbox == []
        assert net.stats.dropped_by_reason["dead_target"] == 1
        # The send attempt is still counted (message complexity is paid).
        assert net.stats.sent_by_kind["ping"] == 1

    def test_dead_sender_cannot_send(self):
        engine, net, actors = make_net(failure_model=StillbornFailures({0}))
        net.send(0, 1, Ping(sender=0, nonce=1))
        engine.run()
        assert actors[1].inbox == []
        assert net.stats.dropped_by_reason["dead_sender"] == 1

    def test_alive_passthrough(self):
        _, net, _ = make_net(failure_model=StillbornFailures({3}))
        assert net.is_alive(0)
        assert not net.is_alive(3)

    def test_dynamic_failures_block_probabilistically(self):
        engine, net, actors = make_net(
            failure_model=DynamicFailures(fail_probability=0.5)
        )
        for _ in range(200):
            net.send(0, 1, Ping(sender=0, nonce=1))
        engine.run()
        blocked = net.stats.dropped_by_reason["perceived_failed"]
        assert 60 <= blocked <= 140

    def test_churn_target_dies_in_flight(self):
        schedule = ChurnSchedule().crash_at(1, 2.0)
        engine, net, actors = make_net(
            failure_model=schedule, latency=ConstantLatency(5.0)
        )
        net.send(0, 1, Ping(sender=0, nonce=1))  # arrives at t=5, dead at t=2
        engine.run()
        assert actors[1].inbox == []
        assert net.stats.dropped_by_reason["dead_target"] == 1


class TestPartitions:
    def test_partitioned_pair_blocked(self):
        engine, net, actors = make_net(
            partition_model=StaticPartition([[0, 1], [2, 3]])
        )
        net.send(0, 2, Ping(sender=0, nonce=1))
        net.send(0, 1, Ping(sender=0, nonce=2))
        engine.run()
        assert actors[2].inbox == []
        assert len(actors[1].inbox) == 1
        assert net.stats.dropped_by_reason["partitioned"] == 1

    def test_partition_heals(self):
        engine, net, actors = make_net(
            partition_model=StaticPartition([[0, 1], [2, 3]], heals_at=10.0)
        )
        engine.schedule(10.0, lambda: net.send(0, 2, Ping(sender=0, nonce=1)))
        engine.run()
        assert len(actors[2].inbox) == 1


def count_package_frames(run) -> int:
    """Python frames entered under ``src/repro/`` while ``run()`` executes
    (comprehension frames left out, so 3.11 and 3.12 agree)."""
    frames = 0

    def profiler(frame, event, arg):
        nonlocal frames
        code = frame.f_code
        if (
            event == "call"
            and code.co_filename.startswith(PACKAGE)
            and code.co_name not in COMPREHENSIONS
        ):
            frames += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return frames


class TestExactCounts:
    def test_channel_loss_send_enters_eight_frames(self):
        """A send the channel loses: ``send``, the target check, the clock,
        ``record_sent``, the three model queries and ``record_dropped`` —
        nothing between the pipeline and its counter (a drop helper method
        made it 9)."""
        _, net, actors = make_net(p_success=0.0)
        message = Ping(sender=0, nonce=1)
        frames = count_package_frames(lambda: net.send(0, 1, message))
        assert net.stats.dropped_by_reason == {"channel_loss": 1}
        assert frames == 8

#: One drop of each reason, as (reason, Network keyword arguments, target):
#: the six stages of the pipeline, the last at delivery.
DROPS = [
    ("dead_sender", {"failure_model": StillbornFailures({0})}, 1),
    ("perceived_failed", {"failure_model": DynamicFailures(1.0)}, 1),
    ("partitioned", {"partition_model": StaticPartition([[0, 1], [2, 3]])}, 2),
    ("channel_loss", {"p_success": 0.0}, 1),
    (
        "fault_loss",
        {"faults": BernoulliLoss(1.0), "fault_rng": random.Random(1)},
        1,
    ),
    ("dead_target", {"failure_model": StillbornFailures({1})}, 1),
]


class TestDropsAreCountedInPlace:
    @pytest.mark.parametrize(
        "reason, kwargs, target", DROPS, ids=[drop[0] for drop in DROPS]
    )
    def test_record_dropped_is_called_by_the_stage_that_drops(
        self, reason, kwargs, target
    ):
        """Every drop is one ``record_dropped`` call made by the pipeline
        itself — ``send``, or ``_deliver`` for a target dead on arrival —
        with no helper frame between the stage and its counter."""
        engine, net, _ = make_net(**kwargs)
        callers = []

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "record_dropped":
                callers.append(frame.f_back.f_code.co_name)

        sys.setprofile(profiler)
        try:
            net.send(0, target, Ping(sender=0, nonce=1))
            engine.run()
        finally:
            sys.setprofile(None)
        assert net.stats.dropped_by_reason == {reason: 1}
        assert callers == ["_deliver" if reason == "dead_target" else "send"]
