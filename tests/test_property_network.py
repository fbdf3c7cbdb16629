"""Property-based tests: network accounting and membership invariants."""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.failures import DynamicFailures, StillbornFailures
from repro.membership import FlatMembership, FlatMembershipConfig, ProcessDescriptor
from repro.net import Network
from repro.net.control import Ping
from repro.sim import Engine
from repro.topics import Topic

from net_actors import register_actors

GROUP = Topic.parse(".g")


class Sink:
    def __init__(self, pid):
        self.pid = pid
        self.received = 0

    def handle_message(self, message):
        self.received += 1


@given(
    st.integers(2, 8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=60),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32),
)
@settings(max_examples=100)
def test_conservation_sent_equals_delivered_plus_dropped(
    n, sends, p_success, seed
):
    """After quiescence every send attempt is delivered or dropped."""
    engine = Engine()
    network = Network(engine, random.Random(seed), p_success=p_success)
    actors = [Sink(i) for i in range(n)]
    register_actors(network, actors)
    attempted = 0
    for src, dst in sends:
        if src < n and dst < n:
            network.send(src, dst, Ping(sender=src, nonce=1))
            attempted += 1
    engine.run()
    stats = network.stats
    assert stats.total_sent == attempted
    delivered = sum(stats.delivered_by_kind.values())
    assert delivered + stats.total_dropped == attempted
    assert sum(a.received for a in actors) == delivered


@given(
    st.floats(0.0, 1.0),
    st.integers(0, 2**32),
)
@settings(max_examples=50)
def test_stillborn_targets_never_receive(fail_share, seed):
    rng = random.Random(seed)
    n = 10
    failed = {pid for pid in range(n) if rng.random() < fail_share}
    engine = Engine()
    network = Network(
        engine,
        random.Random(seed),
        failure_model=StillbornFailures(failed),
    )
    actors = [Sink(i) for i in range(n)]
    register_actors(network, actors)
    alive = [pid for pid in range(n) if pid not in failed]
    if not alive:
        return
    sender = alive[0]
    for dst in range(n):
        if dst != sender:
            network.send(sender, dst, Ping(sender=sender, nonce=1))
    engine.run()
    for pid in failed:
        assert actors[pid].received == 0


@given(st.floats(0.0, 1.0), st.integers(0, 2**32))
@settings(max_examples=50)
def test_dynamic_failures_never_kill_ground_truth(p_fail, seed):
    engine = Engine()
    network = Network(
        engine,
        random.Random(seed),
        failure_model=DynamicFailures(p_fail),
    )
    a, b = Sink(0), Sink(1)
    register_actors(network, [a, b])
    for _ in range(30):
        network.send(0, 1, Ping(sender=0, nonce=1))
    engine.run()
    # Everyone is really alive; deliveries + perceived-failure drops
    # account for every attempt.
    stats = network.stats
    assert (
        sum(stats.delivered_by_kind.values())
        + stats.dropped_by_reason["perceived_failed"]
        == 30
    )


class MemberActor:
    def __init__(self, pid, engine, network, rng, config):
        self.pid = pid
        self.descriptor = ProcessDescriptor(pid, GROUP)
        self.membership = FlatMembership(
            self.descriptor,
            GROUP,
            config,
            engine,
            rng,
            send=lambda target, msg: network.send(self.pid, target, msg),
            multicast=lambda targets, msg: network.multicast(self.pid, targets, msg),
        )

    def handle_message(self, message):
        self.membership.handle_message(message)


@given(
    st.integers(3, 12),
    st.integers(2, 6),
    st.integers(0, 2**32),
    st.floats(0.6, 1.0),
)
@settings(max_examples=25, deadline=None)
def test_flat_membership_invariants_under_loss(n, capacity, seed, p_success):
    """For any group size/capacity/loss: no self-entries, capacity bound."""
    engine = Engine()
    network = Network(engine, random.Random(seed), p_success=p_success)
    config = FlatMembershipConfig(capacity=capacity)
    members = []
    for pid in range(n):
        actor = MemberActor(
            pid, engine, network, random.Random(seed * 2654435761 % 2**31 + pid), config
        )
        members.append(actor)
    register_actors(network, members)
    members[0].membership.start()
    for actor in members[1:]:
        actor.membership.start(members[0].descriptor)
    engine.run(until=25.0)
    for actor in members:
        view = actor.membership.view
        assert len(view) <= capacity
        assert actor.pid not in view
        for descriptor in view.descriptors():
            assert descriptor.topic == GROUP
            assert 0 <= descriptor.pid < n
