"""Unit tests for Fig. 7's DISSEMINATE (the one kernel,
:func:`repro.core.group_actor.forward`) over a dynamic process's tables,
and for the glue that hands those tables to it."""

import random

import pytest

from repro.core.events import Event, EventId
from repro.core.group_actor import forward
from repro.core.params import DaMulticastConfig, TopicParams
from repro.core.system import DaMulticastSystem
from repro.core.tables import SuperTopicTable
from repro.membership.view import PartialView, ProcessDescriptor
from repro.net.message import Scope
from repro.topics import Topic, TopicHierarchy

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")
INTRA = Scope("intra", T2)
UP = Scope("inter", T2, T1)


def make_event(topic=T2) -> Event:
    return Event(EventId(99, 1), topic, None, 0.0)


def run_fig7(
    *,
    params,
    group_size,
    table_pids,
    super_pids,
    seed=0,
    force_link=False,
    next_hops=1,
):
    """Run the kernel for pid 0 of ``T2`` over a dynamic process's tables
    — a view holding ``table_pids`` and a supertopic table of ``T1``
    holding ``super_pids`` — shaped as the process hands them over (index
    0, the table as one super block, none when it is empty, the view's
    pids as the whole row). Returns ``(intra, inter)``, each a list of
    ``(targets, message)`` multicasts."""
    rng = random.Random(seed)
    view = PartialView(max(1, len(table_pids)))
    for pid in table_pids:
        view.add(ProcessDescriptor(pid, T2))
    table = SuperTopicTable(params.z)
    if super_pids:
        table.adopt(T1, [ProcessDescriptor(p, T1) for p in super_pids], rng, own_topic=T2)
    links = table.pids
    row = view.pids
    sent = []
    forward(
        lambda sender, targets, message: sent.append((list(targets), message)),
        0,
        make_event(),
        next_hops,
        rng,
        force_link,
        0,
        ((UP, len(links), links),) if links else (),
        params.p_sel(group_size),
        params.p_a,
        INTRA,
        row,
        len(row),
        params.fanout(group_size),
    )
    intra = [(t, m) for t, m in sent if m.scope.kind == "intra"]
    inter = [(t, m) for t, m in sent if m.scope.kind == "inter"]
    return intra, inter


def count(multicasts) -> int:
    return sum(len(targets) for targets, _ in multicasts)


class TestIntraGossip:
    def test_fanout_respected(self):
        intra, inter = run_fig7(
            params=TopicParams(c=2, fanout_log_base=10),
            group_size=100,
            table_pids=range(1, 30),
            super_pids=[],
        )
        # fanout = ceil(log10(100) + 2) = 4
        assert count(intra) == 4
        assert inter == []

    def test_targets_distinct(self):
        intra, _ = run_fig7(
            params=TopicParams(c=5),
            group_size=50,
            table_pids=range(1, 40),
            super_pids=[],
        )
        (targets, _), = intra
        assert len(set(targets)) == len(targets)

    def test_small_table_degrades_gracefully(self):
        intra, _ = run_fig7(
            params=TopicParams(c=5),
            group_size=1000,
            table_pids=[1, 2],
            super_pids=[],
        )
        assert count(intra) == 2  # can't exceed what we know

    def test_intra_scope_tagged(self):
        intra, _ = run_fig7(
            params=TopicParams(c=1),
            group_size=10,
            table_pids=[1, 2, 3, 4, 5],
            super_pids=[],
        )
        for _, message in intra:
            assert message.scope.kind == "intra"
            assert message.scope.group == T2

    def test_a_view_never_holds_its_owner(self):
        """The kernel does not exclude the sender: a process's flat
        membership never admits its own descriptor."""
        system = DaMulticastSystem(seed=2, mode="dynamic")
        system.add_group(T1, 5)
        system.add_group(T2, 20)
        system.run(until=15)
        for process in system.processes:
            assert process.pid not in process.topic_table().pids
        system.close()


class TestSuperHandoff:
    def test_force_link_always_sends_up(self):
        _, inter = run_fig7(
            params=TopicParams(g=1, a=3, z=3),  # p_a = 1: all entries
            group_size=10_000,  # p_sel ~ 0: only force_link explains sends
            table_pids=[],
            super_pids=[10, 11, 12],
            force_link=True,
        )
        assert count(inter) == 3

    def test_election_probability_zeroish_without_force(self):
        sent_up = 0
        for seed in range(50):
            _, inter = run_fig7(
                params=TopicParams(g=1, a=3, z=3),
                group_size=10_000,  # p_sel = 1e-4
                table_pids=[1],
                super_pids=[10],
                seed=seed,
            )
            sent_up += count(inter)
        assert sent_up == 0  # 50 trials at p=1e-4: overwhelmingly zero

    def test_election_certain_in_tiny_group(self):
        _, inter = run_fig7(
            params=TopicParams(g=5, a=3, z=3),  # p_sel = 1 for S<=5, p_a=1
            group_size=3,
            table_pids=[1, 2],
            super_pids=[10, 11, 12],
        )
        assert count(inter) == 3

    def test_p_a_thins_supertable_sends(self):
        total = 0
        trials = 300
        for seed in range(trials):
            _, inter = run_fig7(
                params=TopicParams(g=5, a=1, z=3),  # p_a = 1/3
                group_size=2,  # p_sel = 1
                table_pids=[1],
                super_pids=[10, 11, 12],
                seed=seed,
            )
            total += count(inter)
        # E[inter] = z * p_a = 1 per trial.
        assert 0.75 * trials / 3 * 3 <= total <= 1.25 * trials

    def test_empty_super_table_sends_nothing_up(self):
        """No super block, so no election and no ``p_a`` draw: the stream
        moves by the gossip sample alone."""
        params = TopicParams()
        _, inter = run_fig7(
            params=params,
            group_size=5,
            table_pids=[1, 2],
            super_pids=[],
            force_link=True,
            seed=7,
        )
        assert inter == []
        untouched = random.Random(7)
        assert params.fanout(5) >= 2  # the whole row: no draw at all
        rng = random.Random(7)
        forward(
            lambda *sent: None, 0, make_event(), 1, rng, False, 0,
            [(UP, 0, [])], params.p_sel(5), params.p_a, INTRA, [1, 2], 2,
            params.fanout(5),
        )
        assert rng.getstate() == untouched.getstate()

    def test_inter_scope_tagged_with_edge(self):
        _, inter = run_fig7(
            params=TopicParams(g=5, a=3, z=3),
            group_size=2,
            table_pids=[1],
            super_pids=[10, 11, 12],
        )
        assert inter
        for _, message in inter:
            assert message.scope.group == T2
            assert message.scope.super_group == T1


class TestOneMessagePerScope:
    def test_one_message_per_scope_carrying_the_hops(self):
        intra, inter = run_fig7(
            params=TopicParams(g=5, a=3, z=3, c=5),  # p_sel = p_a = 1
            group_size=2,
            table_pids=[1, 2, 3],
            super_pids=[10, 11],
            next_hops=5,
        )
        ((up_targets, up),) = inter
        ((in_targets, inside),) = intra
        assert up_targets == [10, 11] and sorted(in_targets) == [1, 2, 3]
        assert up.scope == UP
        assert inside.scope is INTRA
        assert up.sender == inside.sender == 0
        assert up.hops == inside.hops == 5

    def test_nothing_selected_sends_nothing(self):
        intra, inter = run_fig7(
            params=TopicParams(),
            group_size=5,
            table_pids=[],
            super_pids=[],
            force_link=True,
        )
        assert intra == inter == []


class TestProcessGlue:
    """A dynamic process hands its own tables to the kernel: the
    publisher is a link (its whole table goes up when ``p_a`` is 1), and
    every copy it forwards carries one hop more than it arrived with."""

    @pytest.fixture
    def system(self):
        system = DaMulticastSystem(
            seed=3,
            mode="dynamic",
            config=DaMulticastConfig(default_params=TopicParams(g=1, a=3, z=3)),
        )
        system.add_group(T1, 8)
        system.add_group(T2, 40)  # p_sel = 1/40
        system.run(until=20)
        yield system
        system.close()

    def test_the_publisher_hands_its_whole_table_up(self, system):
        publisher = next(p for p in system.group(T2) if len(p.super_table) == 3)
        before = system.stats.events_sent_between(T2, T1)
        system.publish(T2, publisher=publisher)
        # the publish instant: the publisher's own hand-off, before any
        # copy is delivered
        assert system.stats.events_sent_between(T2, T1) - before == 3

    def test_hops_count_transmissions(self, system):
        event = system.publish(T2)
        system.run(until=system.now)
        hops = system.tracker.delivery_hops(event.event_id)
        assert hops[event.event_id.publisher] == 0
        assert set(hops.values()) >= {0, 1, 2}


class TestDeliveryInclusion:
    """The no-parasite check both hosts run before delivering: the
    subscriber's topic must include the event's, by the hierarchy."""

    @staticmethod
    def should_deliver(event, topic):
        return TopicHierarchy().includes(topic, event.topic)

    def test_own_topic(self):
        assert self.should_deliver(make_event(T2), T2)

    def test_supertopic_subscriber_gets_subtopic_event(self):
        assert self.should_deliver(make_event(T2), T1)

    def test_subtopic_subscriber_rejects_supertopic_event(self):
        assert not self.should_deliver(make_event(T1), T2)

    def test_sibling_rejected(self):
        assert not self.should_deliver(make_event(T2), Topic.parse(".t1.other"))
