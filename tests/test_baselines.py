"""Tests for the three baseline algorithms (§VI-E comparisons)."""

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
from repro.topics import ROOT, Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")
SIZES = {ROOT: 5, T1: 20, T2: 60}


def populate(system):
    for topic, count in SIZES.items():
        system.add_group(topic, count)
    system.finalize_membership()
    return system


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
        assert system.parasite_count() == SIZES[T2]

    def test_single_table_per_process(self):
        system = populate(GossipBroadcastSystem(seed=0))
        for process in system.processes:
            assert process.table_count == 1
            assert GLOBAL_GROUP in process.groups

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
        interested = {p.pid for p in system.interested_in(T2)}
        assert receivers == interested

    def test_no_parasites(self):
        system = populate(GossipMulticastSystem(seed=0))
        system.publish(T2)
        system.publish(T1)
        system.run_until_idle()
        assert system.parasite_count() == 0

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
        # Group T2 = subscribers of T2 + T1 + ROOT.
        assert len(system.group_members(T2)) == sum(SIZES.values())
        assert len(system.group_members(T1)) == SIZES[ROOT] + SIZES[T1]
        assert len(system.group_members(ROOT)) == SIZES[ROOT]


class TestHierarchical:
    def test_cluster_partition(self):
        system = populate(HierarchicalGossipSystem(seed=0, n_clusters=5))
        clusters = system.clusters()
        assert len(clusters) == 5
        total = sum(len(members) for members in clusters.values())
        assert total == sum(SIZES.values())
        sizes = {len(members) for members in clusters.values()}
        assert max(sizes) - min(sizes) <= 1  # balanced

    @pytest.mark.parametrize("redraw", [False, True])
    def test_two_tables_per_process(self, redraw):
        system = populate(HierarchicalGossipSystem(seed=0, n_clusters=5))
        if redraw:  # most processes change cluster; the old table goes
            system.finalize_membership()
        for process in system.processes:
            assert process.table_count == 2
            assert CLUSTERS_ROOT in process.groups

    def test_cross_cluster_table_excludes_own_cluster(self):
        system = populate(HierarchicalGossipSystem(seed=0, n_clusters=5))
        cluster_of = {
            p.pid: key for key, members in system.clusters().items() for p in members
        }
        for process in system.processes:
            cross = process.groups[CLUSTERS_ROOT]
            row = cross.tables.row_pids(cross.row)
            assert len(row) == system.params.table_capacity(5)
            for pid in row:
                assert cluster_of[pid] != process.cluster

    @pytest.mark.parametrize("redraw", [False, True])
    def test_one_cluster_keeps_an_empty_cross_table(self, redraw):
        system = populate(HierarchicalGossipSystem(seed=2, n_clusters=1))
        if redraw:
            system.finalize_membership()
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
        assert system.parasite_count() == SIZES[T2]

    def test_inter_cluster_messages_tracked(self):
        system = populate(HierarchicalGossipSystem(seed=1, n_clusters=5))
        system.publish(T2)
        system.run_until_idle()
        inter = sum(system.stats.inter_group_sent.values())
        assert inter >= 1
        # each cross-cluster batch is addressed to its targets' cluster
        clusters = set(system.clusters())
        for source, destination in system.stats.inter_group_sent:
            assert source in clusters and destination in clusters
            assert source != destination

    def test_too_many_clusters_rejected(self):
        system = HierarchicalGossipSystem(seed=0, n_clusters=50)
        system.add_group(T2, 10)
        with pytest.raises(ConfigError):
            system.finalize_membership()

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
        system.finalize_membership()
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

    def test_cross_fanout_takes_c2(self):
        system = HierarchicalGossipSystem(n_clusters=4, c=5.0, c2=1.0)
        assert system.params.fanout(4) == 7
        assert system.cross_params.fanout(4) == 3
        assert system.cross_params.table_capacity(4) == system.params.table_capacity(4)
        with pytest.raises(ConfigError, match="c must be >= 0"):
            HierarchicalGossipSystem(c2=-1.0)


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
