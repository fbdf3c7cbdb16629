"""Integration tests for the flat gossip membership ([10])."""

import random

import pytest

from repro.errors import ConfigError
from repro.membership import FlatMembership, FlatMembershipConfig, ProcessDescriptor
from repro.net import Network
from repro.net.message import Message
from repro.failures import ChurnSchedule
from repro.sim import Engine
from repro.topics import Topic

from net_actors import register_actors

GROUP = Topic.parse(".group")


class MemberActor:
    """Thin actor wrapping one FlatMembership instance for tests."""

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

    def handle_message(self, message: Message) -> None:
        self.membership.handle_message(message)


def build_group(n, *, seed=0, capacity=8, failure_model=None):
    engine = Engine()
    network = Network(engine, random.Random(seed), failure_model=failure_model)
    config = FlatMembershipConfig(capacity=capacity)
    members = []
    for pid in range(n):
        actor = MemberActor(pid, engine, network, random.Random(seed * 1000 + pid), config)
        members.append(actor)
    register_actors(network, members)
    return engine, network, members


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FlatMembershipConfig(capacity=0)
        with pytest.raises(ConfigError):
            FlatMembershipConfig(capacity=4, shuffle_interval=0)
        with pytest.raises(ConfigError):
            FlatMembershipConfig(capacity=4, shuffle_length=0)
        with pytest.raises(ConfigError):
            FlatMembershipConfig(capacity=4, join_ttl=-1)


class TestJoin:
    def test_join_fills_joiner_view(self):
        engine, _, members = build_group(10)
        # Bootstrap: first member alone, others join via member 0.
        members[0].membership.start()
        for actor in members[1:]:
            actor.membership.start(members[0].descriptor)
        engine.run(until=10.0)
        for actor in members[1:]:
            assert len(actor.membership.view) >= 1

    def test_join_spreads_joiner_id(self):
        engine, _, members = build_group(12)
        members[0].membership.start()
        for actor in members[1:]:
            actor.membership.start(members[0].descriptor)
        engine.run(until=20.0)
        last = members[-1].pid
        knowers = sum(
            1
            for actor in members
            if actor.pid != last and last in actor.membership.view
        )
        assert knowers >= 1

    def test_start_is_idempotent(self):
        engine, _, members = build_group(2)
        members[0].membership.start()
        members[0].membership.start()
        engine.run(until=2.0)  # no crash from double task


class TestShuffle:
    def test_views_converge_to_connected_overlay(self):
        engine, _, members = build_group(20, capacity=6)
        members[0].membership.start()
        for actor in members[1:]:
            actor.membership.start(members[0].descriptor)
        engine.run(until=50.0)

        # Union of view edges must connect the group (reachability from 0).
        adjacency = {
            actor.pid: set(actor.membership.view.pids) for actor in members
        }
        reached = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for peer in adjacency[node]:
                if peer not in reached:
                    reached.add(peer)
                    frontier.append(peer)
        assert len(reached) == 20

    def test_view_capacity_never_exceeded(self):
        engine, _, members = build_group(20, capacity=5)
        members[0].membership.start()
        for actor in members[1:]:
            actor.membership.start(members[0].descriptor)
        engine.run(until=30.0)
        for actor in members:
            assert len(actor.membership.view) <= 5

    def test_no_self_entries(self):
        engine, _, members = build_group(10, capacity=6)
        members[0].membership.start()
        for actor in members[1:]:
            actor.membership.start(members[0].descriptor)
        engine.run(until=30.0)
        for actor in members:
            assert actor.pid not in actor.membership.view


class TestFailureExpiry:
    def test_dead_partner_eventually_evicted(self):
        schedule = ChurnSchedule().crash_at(0, 10.0)
        engine, _, members = build_group(6, failure_model=schedule, capacity=6)
        members[0].membership.start()
        for actor in members[1:]:
            actor.membership.start(members[0].descriptor)
        engine.run(until=200.0)
        holders = sum(1 for a in members[1:] if 0 in a.membership.view)
        # Everyone who shuffles with the corpse evicts it; a few views may
        # still hold it if they never picked it as a partner, but most drop.
        assert holders <= 2


class TestPiggybacking:
    def test_super_samples_travel_with_gossip(self):
        engine = Engine()
        network = Network(engine, random.Random(0))
        config = FlatMembershipConfig(capacity=6)
        super_desc = ProcessDescriptor(99, Topic.parse("."))
        received: list[ProcessDescriptor] = []

        providers = {
            0: lambda: (super_desc,),
            1: lambda: (),
        }

        class PiggyActor(MemberActor):
            def __init__(self, pid, rng):
                self.pid = pid
                self.descriptor = ProcessDescriptor(pid, GROUP)
                self.membership = FlatMembership(
                    self.descriptor,
                    GROUP,
                    config,
                    engine,
                    rng,
                    send=lambda target, msg: network.send(self.pid, target, msg),
                    multicast=lambda targets, msg: network.multicast(
                        self.pid, targets, msg
                    ),
                    super_sample_provider=providers[pid],
                    super_sample_consumer=lambda descs: received.extend(descs),
                )

        a = PiggyActor(0, random.Random(1))
        b = PiggyActor(1, random.Random(2))
        register_actors(network, [a, b])
        a.membership.start()
        b.membership.start(a.descriptor)
        engine.run(until=10.0)
        assert super_desc in received
