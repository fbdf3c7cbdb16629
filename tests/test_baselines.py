"""Tests for the three baseline algorithms (§VI-E comparisons)."""

from collections import Counter

import pytest

from repro.baselines import (
    GossipBroadcastSystem,
    GossipMulticastSystem,
    HierarchicalGossipSystem,
    NaivePublisherSystem,
)
from repro.baselines.broadcast import GLOBAL_GROUP
from repro.baselines.hierarchical import CLUSTERS_ROOT
from repro.errors import ConfigError, UnknownTopic
from repro.failures import StillbornFailures
from repro.metrics.delivery import parasite_deliveries
from repro.topics import ROOT, Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")
SIZES = {ROOT: 5, T1: 20, T2: 60}


def populate(system):
    for topic, count in SIZES.items():
        system.add_group(topic, count)
    system.finalize_static_membership()
    return system


def actor_of(system):
    """The one block actor a baseline's finalize registered."""
    return system._actors[T2]


def parasites(system):
    return parasite_deliveries(system.tracker, system.interests())


def interested_pids(system, topic):
    """Pids whose subscription includes ``topic``."""
    return {
        pid for pid, interest in system.interests().items() if interest.includes(topic)
    }


def row_of(system, pid, group):
    """``pid``'s table in ``group``: its row of the table set seating it."""
    for tables, _, rows in actor_of(system).seats[group]:
        if pid in rows:
            return tables.row_pids(rows[pid])
    return None


class TestBroadcast:
    def test_everyone_receives_everything(self):
        system = populate(GossipBroadcastSystem(seed=0))
        event = system.publish(T2)
        system.run_until_idle()
        receivers = system.tracker.delivery_count(event.event_id)
        assert receivers == sum(SIZES.values())

    def test_parasites_counted(self):
        system = populate(GossipBroadcastSystem(seed=0))
        system.publish(T1)  # T2 subscribers are NOT interested in T1 events
        system.run_until_idle()
        assert parasites(system) == SIZES[T2]

    def test_single_table_per_process(self):
        system = populate(GossipBroadcastSystem(seed=0))
        assert list(actor_of(system).seats) == [GLOBAL_GROUP]
        for process in system.processes:
            assert process.table_count == 1
            assert len(row_of(system, process.pid, GLOBAL_GROUP)) == process.memory_footprint

    def test_message_complexity_n_log_n(self):
        system = populate(GossipBroadcastSystem(seed=0))
        system.publish(T2)
        system.run_until_idle()
        n = sum(SIZES.values())
        fanout = system.params.fanout(n)
        sent = system.stats.event_messages_sent()
        assert sent <= n * fanout
        assert sent >= 0.9 * n * fanout

    def test_publish_requires_finalize(self):
        system = GossipBroadcastSystem(seed=0)
        system.add_group(T2, 5)
        with pytest.raises(ConfigError):
            system.publish(T2)

    def test_delivered_fraction_full_on_reliable_network(self):
        system = populate(GossipBroadcastSystem(seed=0))
        event = system.publish(T2)
        system.run_until_idle()
        assert system.delivered_fraction(event, T2) == 1.0
        assert system.delivered_fraction(event, ROOT) == 1.0


class TestMulticast:
    def test_subscribers_join_subtopic_groups(self):
        system = populate(GossipMulticastSystem(seed=0))
        # A ROOT subscriber joins the root, T1 and T2 groups (3 tables);
        # a T2 subscriber joins only T2's group (1 table).
        root_proc = system.group(ROOT)[0]
        t2_proc = system.group(T2)[0]
        assert root_proc.table_count == 3
        assert t2_proc.table_count == 1

    def test_event_reaches_all_interested_only(self):
        system = populate(GossipMulticastSystem(seed=0))
        event = system.publish(T2)
        system.run_until_idle()
        receivers = set(system.tracker.receivers(event.event_id))
        assert receivers == interested_pids(system, T2)

    def test_no_parasites(self):
        system = populate(GossipMulticastSystem(seed=0))
        system.publish(T2)
        system.publish(T1)
        system.run_until_idle()
        assert parasites(system) == 0

    def test_supertopic_event_skips_subtopic_subscribers(self):
        system = populate(GossipMulticastSystem(seed=0))
        event = system.publish(T1)
        system.run_until_idle()
        t2_pids = {p.pid for p in system.group(T2)}
        receivers = set(system.tracker.receivers(event.event_id))
        assert receivers.isdisjoint(t2_pids)

    def test_unknown_topic_publish_rejected(self):
        system = populate(GossipMulticastSystem(seed=0))
        with pytest.raises(UnknownTopic):
            system.publish(".nonexistent")

    def test_group_membership_counts(self):
        system = populate(GossipMulticastSystem(seed=0))
        seats = actor_of(system).seats
        # Group T2 = subscribers of T2 + T1 + ROOT, in pid order.
        ((t2, _, _),) = seats[T2]
        assert list(t2.members) == list(range(sum(SIZES.values())))
        assert seats[T1][0][0].size == SIZES[ROOT] + SIZES[T1]
        assert seats[ROOT][0][0].size == SIZES[ROOT]


class TestHierarchical:
    def test_cluster_partition(self):
        system = populate(HierarchicalGossipSystem(seed=0, n_clusters=5))
        cluster_of = actor_of(system).cluster_of
        assert len(cluster_of) == sum(SIZES.values())
        sizes = Counter(cluster_of)
        assert len(sizes) == 5 and None not in sizes
        assert max(sizes.values()) - min(sizes.values()) <= 1  # balanced

    def test_two_tables_per_process(self):
        system = populate(HierarchicalGossipSystem(seed=0, n_clusters=5))
        cluster_of = actor_of(system).cluster_of
        for process in system.processes:
            assert process.table_count == 2
            assert row_of(system, process.pid, cluster_of[process.pid])
            assert row_of(system, process.pid, CLUSTERS_ROOT)

    def test_cross_cluster_table_excludes_own_cluster(self):
        system = populate(HierarchicalGossipSystem(seed=0, n_clusters=5))
        cluster_of = actor_of(system).cluster_of
        for process in system.processes:
            row = row_of(system, process.pid, CLUSTERS_ROOT)
            assert len(row) == system.params.table_capacity(5)
            for pid in row:
                assert cluster_of[pid] != cluster_of[process.pid]

    def test_one_cluster_keeps_an_empty_cross_table(self):
        system = populate(HierarchicalGossipSystem(seed=2, n_clusters=1))
        for process in system.processes:
            # the in-cluster table, (b+1)·ln(85) = 17.8 -> 18 entries, and
            # an empty cross table
            assert process.table_count == 2
            assert process.memory_footprint == 18
        event = system.publish(T2)
        system.run_until_idle()
        assert system.tracker.delivery_count(event.event_id) == sum(SIZES.values())
        assert sum(system.stats.inter_group_sent.values()) == 0

    def test_everyone_receives(self):
        system = populate(HierarchicalGossipSystem(seed=1, n_clusters=5))
        event = system.publish(T2)
        system.run_until_idle()
        assert system.tracker.delivery_count(event.event_id) == sum(
            SIZES.values()
        )

    def test_parasites_nonzero(self):
        system = populate(HierarchicalGossipSystem(seed=1, n_clusters=5))
        system.publish(T1)
        system.run_until_idle()
        assert parasites(system) == SIZES[T2]

    def test_inter_cluster_messages_tracked(self):
        system = populate(HierarchicalGossipSystem(seed=1, n_clusters=5))
        system.publish(T2)
        system.run_until_idle()
        inter = sum(system.stats.inter_group_sent.values())
        assert inter >= 1
        # each cross-cluster batch is addressed to its targets' cluster
        clusters = set(actor_of(system).cluster_of)
        for source, destination in system.stats.inter_group_sent:
            assert source in clusters and destination in clusters
            assert source != destination

    def test_too_many_clusters_rejected(self):
        system = HierarchicalGossipSystem(seed=0, n_clusters=50)
        system.add_group(T2, 10)
        with pytest.raises(ConfigError):
            system.finalize_static_membership()

    def test_invalid_cluster_count(self):
        with pytest.raises(ConfigError):
            HierarchicalGossipSystem(n_clusters=0)


class TestFairSubstrate:
    def test_failures_affect_baselines_too(self):
        failed = set(range(0, 85, 2))
        system = GossipBroadcastSystem(
            seed=3, failure_model=StillbornFailures(failed)
        )
        for topic, count in SIZES.items():
            system.add_group(topic, count)
        system.finalize_static_membership()
        alive_t2 = [
            p
            for p in system.group(T2)
            if system.harness.is_alive(p.pid)
        ]
        event = system.publish(T2, publisher=alive_t2[0])
        system.run_until_idle()
        assert system.tracker.delivery_count(event.event_id) < sum(SIZES.values())

    def test_lossy_channels(self):
        system = populate(GossipBroadcastSystem(seed=4, p_success=0.85))
        event = system.publish(T2)
        system.run_until_idle()
        fraction = system.delivered_fraction(event, T2)
        assert fraction > 0.8


class TestSizeLaws:
    @pytest.mark.parametrize(
        "system_class",
        [
            GossipBroadcastSystem,
            GossipMulticastSystem,
            HierarchicalGossipSystem,
            NaivePublisherSystem,
        ],
    )
    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"log_base": 1.0}, "fanout_log_base must be > 1"),
            ({"log_base": 0.5}, "fanout_log_base must be > 1"),
            ({"b": -1.0}, "b must be >= 0"),
            ({"c": -0.5}, "c must be >= 0"),
        ],
    )
    def test_out_of_range_constants_rejected(self, system_class, bad, match):
        with pytest.raises(ConfigError, match=match):
            system_class(**bad)


class TestOnePublish:
    @pytest.mark.parametrize(
        "system_class",
        [
            GossipBroadcastSystem,
            GossipMulticastSystem,
            HierarchicalGossipSystem,
            NaivePublisherSystem,
        ],
    )
    def test_unregistered_topic_rejected_whoever_publishes(self, system_class):
        system = populate(system_class(seed=0))
        for publisher in (None, system.group(T2)[0]):
            with pytest.raises(UnknownTopic, match="not in the hierarchy"):
                system.publish(".nonexistent", publisher=publisher)
        assert system.tracker.events == []
        assert system.stats.total_sent == 0
