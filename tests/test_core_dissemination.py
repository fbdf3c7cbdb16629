"""Unit tests for the DISSEMINATE/RECEIVE logic against a scripted peer."""

import random

import pytest

from repro.core.dissemination import disseminate, should_deliver
from repro.core.events import Event, EventId
from repro.core.params import TopicParams
from repro.core.process import DaMulticastProcess
from repro.core.tables import SuperTopicTable
from repro.membership.view import PartialView, ProcessDescriptor
from repro.net.message import EventMessage, Scope
from repro.topics import Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


class ScriptedPeer:
    """A DisseminationPeer with fully controlled tables and rng.

    Fig. 7's two selections are the object host's own methods, borrowed
    unbound, so these tests exercise production code over scripted tables.
    """

    link_targets = DaMulticastProcess.link_targets
    gossip_targets = DaMulticastProcess.gossip_targets
    _size_group_constants = DaMulticastProcess._size_group_constants

    def __init__(self, *, params, group_size, table_pids, super_pids, seed=0):
        self.pid = 0
        self.topic = T2
        self.intra_scope = Scope("intra", T2)
        self.rng = random.Random(seed)
        self._rng = self.rng  # the resolved stream the selections read
        self.params = params
        self.group_size = group_size
        # what the borrowed selections keep beside ``params``
        self._p_a = params.p_a
        self._sized_for = 0
        self._table = PartialView(max(1, len(table_pids) or 1))
        for pid in table_pids:
            self._table.add(ProcessDescriptor(pid, T2))
        self.super_table = SuperTopicTable(params.z)
        if super_pids:
            self.super_table.adopt(
                T1,
                [ProcessDescriptor(pid, T1) for pid in super_pids],
                self.rng,
                own_topic=T2,
            )
        self.sent: list[tuple[int, EventMessage]] = []

    def topic_table(self):
        return self._table

    def multicast(self, targets, message):
        for target in targets:
            self.sent.append((target, message))


def make_event(topic=T2) -> Event:
    return Event(EventId(99, 1), topic, None, 0.0)


class TestIntraGossip:
    def test_fanout_respected(self):
        peer = ScriptedPeer(
            params=TopicParams(c=2, fanout_log_base=10),
            group_size=100,
            table_pids=range(1, 30),
            super_pids=[],
        )
        intra, inter = disseminate(peer, make_event())
        # fanout = ceil(log10(100) + 2) = 4
        assert intra == 4
        assert inter == 0
        assert len(peer.sent) == 4

    def test_targets_distinct(self):
        peer = ScriptedPeer(
            params=TopicParams(c=5),
            group_size=50,
            table_pids=range(1, 40),
            super_pids=[],
        )
        disseminate(peer, make_event())
        targets = [t for t, _ in peer.sent]
        assert len(set(targets)) == len(targets)

    def test_small_table_degrades_gracefully(self):
        peer = ScriptedPeer(
            params=TopicParams(c=5),
            group_size=1000,
            table_pids=[1, 2],
            super_pids=[],
        )
        intra, _ = disseminate(peer, make_event())
        assert intra == 2  # can't exceed what we know

    def test_never_sends_to_self(self):
        peer = ScriptedPeer(
            params=TopicParams(c=5),
            group_size=10,
            table_pids=[0, 1, 2],  # includes own pid 0
            super_pids=[],
        )
        disseminate(peer, make_event())
        assert all(target != 0 for target, _ in peer.sent)

    def test_intra_scope_tagged(self):
        peer = ScriptedPeer(
            params=TopicParams(c=1),
            group_size=10,
            table_pids=[1, 2, 3, 4, 5],
            super_pids=[],
        )
        disseminate(peer, make_event())
        for _, message in peer.sent:
            assert message.scope.kind == "intra"
            assert message.scope.group == T2


class TestSuperHandoff:
    def test_force_link_always_sends_up(self):
        peer = ScriptedPeer(
            params=TopicParams(g=1, a=3, z=3),  # p_a = 1: all entries
            group_size=10_000,  # p_sel ~ 0: only force_link explains sends
            table_pids=[],
            super_pids=[10, 11, 12],
        )
        peer._table = PartialView(1)  # empty topic table
        _, inter = disseminate(peer, make_event(), force_link=True)
        assert inter == 3

    def test_election_probability_zeroish_without_force(self):
        sent_up = 0
        for seed in range(50):
            peer = ScriptedPeer(
                params=TopicParams(g=1, a=3, z=3),
                group_size=10_000,  # p_sel = 1e-4
                table_pids=[1],
                super_pids=[10],
                seed=seed,
            )
            _, inter = disseminate(peer, make_event())
            sent_up += inter
        assert sent_up == 0  # 50 trials at p=1e-4: overwhelmingly zero

    def test_election_certain_in_tiny_group(self):
        peer = ScriptedPeer(
            params=TopicParams(g=5, a=3, z=3),  # p_sel = 1 for S<=5, p_a=1
            group_size=3,
            table_pids=[1, 2],
            super_pids=[10, 11, 12],
        )
        _, inter = disseminate(peer, make_event())
        assert inter == 3

    def test_p_a_thins_supertable_sends(self):
        total = 0
        trials = 300
        for seed in range(trials):
            peer = ScriptedPeer(
                params=TopicParams(g=5, a=1, z=3),  # p_a = 1/3
                group_size=2,  # p_sel = 1
                table_pids=[1],
                super_pids=[10, 11, 12],
                seed=seed,
            )
            _, inter = disseminate(peer, make_event())
            total += inter
        # E[inter] = z * p_a = 1 per trial.
        assert 0.75 * trials / 3 * 3 <= total <= 1.25 * trials

    def test_empty_super_table_sends_nothing_up(self):
        peer = ScriptedPeer(
            params=TopicParams(),
            group_size=5,
            table_pids=[1, 2],
            super_pids=[],
        )
        _, inter = disseminate(peer, make_event(), force_link=True)
        assert inter == 0

    def test_inter_scope_tagged_with_edge(self):
        peer = ScriptedPeer(
            params=TopicParams(g=5, a=3, z=3),
            group_size=2,
            table_pids=[1],
            super_pids=[10, 11, 12],
        )
        disseminate(peer, make_event())
        inter_messages = [
            m for _, m in peer.sent if m.scope.kind == "inter"
        ]
        assert inter_messages
        for message in inter_messages:
            assert message.scope.group == T2
            assert message.scope.super_group == T1


class PidPeer:
    """The whole contract: two pid selections, a scope and ``multicast``."""

    pid = 7
    topic = T2
    intra_scope = Scope("intra", T2)

    def __init__(self, links, gossip):
        self._links, self._gossip = links, gossip
        self.batches: list[tuple[list[int], EventMessage]] = []

    def link_targets(self, force_link):
        return self._links

    def gossip_targets(self):
        return self._gossip

    def multicast(self, targets, message):
        self.batches.append((targets, message))


class TestPidLevelContract:
    def test_one_message_per_scope_carrying_the_peers_pids(self):
        peer = PidPeer([(T1, [10, 11])], [1, 2, 3])
        intra, inter = disseminate(peer, make_event(), arrival_hops=4)
        assert (intra, inter) == (3, 2)
        (up_targets, up), (in_targets, inside) = peer.batches
        assert up_targets == [10, 11] and in_targets == [1, 2, 3]
        assert up.scope == Scope("inter", T2, T1)
        assert inside.scope is peer.intra_scope
        assert up.sender == inside.sender == 7
        assert up.hops == inside.hops == 5

    def test_nothing_selected_sends_nothing(self):
        peer = PidPeer([], [])
        assert disseminate(peer, make_event()) == (0, 0)
        assert peer.batches == []


class TestShouldDeliver:
    def test_own_topic(self):
        assert should_deliver(make_event(T2), T2)

    def test_supertopic_subscriber_gets_subtopic_event(self):
        assert should_deliver(make_event(T2), T1)

    def test_subtopic_subscriber_rejects_supertopic_event(self):
        assert not should_deliver(make_event(T1), T2)

    def test_sibling_rejected(self):
        assert not should_deliver(make_event(T2), Topic.parse(".t1.other"))
