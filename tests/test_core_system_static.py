"""End-to-end tests of the static (paper-§VII) mode."""

import math

import pytest

from repro.core import DaMulticastConfig, DaMulticastSystem, TopicParams
from repro.errors import ConfigError, ProtocolError, UnknownTopic
from repro.failures import StillbornFailures
from repro.topics import ROOT, Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


def build_paper_like_system(
    *,
    seed=0,
    p_success=1.0,
    failure_model=None,
    sizes=(5, 20, 100),
    log_base=10.0,
    delivery_callback=None,
):
    config = DaMulticastConfig(
        default_params=TopicParams(fanout_log_base=log_base),
    )
    system = DaMulticastSystem(
        config=config,
        seed=seed,
        p_success=p_success,
        failure_model=failure_model,
        mode="static",
        delivery_callback=delivery_callback,
    )
    system.add_group(ROOT, sizes[0])
    system.add_group(T1, sizes[1])
    system.add_group(T2, sizes[2])
    system.finalize_static_membership()
    return system


class TestStaticMembership:
    def test_topic_tables_filled(self):
        system = build_paper_like_system()
        group = set(system.group_pids(T2))
        for process in system.group(T2):
            row = process.tables.row_pids(process.row)
            expected = process.params.table_capacity(100)
            assert len(row) == len(set(row)) == expected
            assert process.pid not in row
            assert set(row) <= group

    def test_super_tables_point_at_direct_super(self):
        system = build_paper_like_system()
        supergroup = set(system.group_pids(T1))
        for process in system.group(T2):
            assert process.tables.super_topic == T1
            row = process.tables.super_row_pids(process.row)
            assert len(row) == process.params.z
            assert set(row) <= supergroup
        for process in system.group(T1):
            assert process.tables.super_topic == ROOT

    def test_root_group_has_no_super_table(self):
        system = build_paper_like_system()
        for process in system.group(ROOT):
            assert process.tables.super_stride == 0
            assert process.tables.super_row_pids(process.row) == []

    def test_super_table_skips_empty_group(self):
        config = DaMulticastConfig()
        system = DaMulticastSystem(config=config, mode="static")
        system.add_group(ROOT, 3)
        system.add_group(T2, 10)  # T1 exists in hierarchy but has no members
        system.finalize_static_membership()
        for process in system.group(T2):
            assert process.tables.super_topic == ROOT

    def test_publish_before_finalize_raises(self):
        system = DaMulticastSystem(mode="static")
        system.add_group(T2, 5)
        with pytest.raises(ConfigError):
            system.publish(T2)

    def test_finalize_requires_static_mode(self):
        system = DaMulticastSystem(mode="dynamic")
        with pytest.raises(ConfigError):
            system.finalize_static_membership()

    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            DaMulticastSystem(mode="hybrid")


class TestDissemination:
    def test_reliable_network_full_coverage(self):
        system = build_paper_like_system()
        event = system.publish(T2)
        system.run_until_idle()
        assert system.delivered_fraction(event, T2) == 1.0
        assert system.delivered_fraction(event, T1) == 1.0
        assert system.delivered_fraction(event, ROOT) == 1.0
        assert system.all_received(event, T2)

    def test_no_parasite_deliveries_possible(self):
        # Publishing on T1 must never reach T2 processes (T2 does not
        # include T1); the process invariant raises if routing leaks.
        system = build_paper_like_system()
        event = system.publish(T1)
        system.run_until_idle()
        assert system.delivered_fraction(event, T1) == 1.0
        assert system.delivered_fraction(event, ROOT) == 1.0
        # No T2 process received the supertopic event.
        assert system.delivered_fraction(event, T2) == 0.0

    def test_event_climbs_one_group_at_a_time(self):
        system = build_paper_like_system()
        system.publish(T2)
        system.run_until_idle()
        stats = system.stats
        assert stats.events_sent_between(T2, T1) >= 1
        assert stats.events_sent_between(T1, ROOT) >= 1
        assert stats.events_sent_between(T2, ROOT) == 0  # never skips levels

    def test_recorded_hops_grow_up_the_hierarchy(self):
        system = build_paper_like_system(seed=5, sizes=(4, 10, 40))
        event = system.publish(T2)
        system.run_until_idle()
        hops = system.tracker.delivery_hops(event.event_id)

        def mean_depth(topic):
            # the publisher's own delivery (0 hops) never crossed the network
            depths = [hops[pid] for pid in system.group_pids(topic) if hops[pid]]
            return sum(depths) / len(depths)

        # Supergroups are reached strictly deeper than the publication
        # group, and epidemic depth is O(log S): a cap well below S.
        assert mean_depth(ROOT) > mean_depth(T1) > mean_depth(T2)
        assert max(hops.values()) <= 20

    def test_root_publication_stays_in_root(self):
        system = build_paper_like_system()
        event = system.publish(ROOT)
        system.run_until_idle()
        assert system.delivered_fraction(event, ROOT) == 1.0
        assert system.stats.inter_group_sent == {}

    def test_message_counts_scale_with_group(self):
        system = build_paper_like_system()
        system.publish(T2)
        system.run_until_idle()
        stats = system.stats
        # Every T2 member forwards fanout messages once: S*(log10(S)+c).
        fanout = TopicParams(fanout_log_base=10).fanout(100)
        assert stats.events_sent_in_group(T2) <= 100 * fanout
        assert stats.events_sent_in_group(T2) >= 0.9 * 100 * fanout
        assert stats.events_sent_in_group(T1) <= 20 * TopicParams(
            fanout_log_base=10
        ).fanout(20)

    def test_publisher_also_delivers_to_itself(self):
        system = build_paper_like_system()
        publisher = system.group(T2)[0]
        event = system.publish(T2, publisher=publisher)
        system.run_until_idle()
        assert system.tracker.received_by(event.event_id, publisher.pid)

    def test_duplicate_events_delivered_once(self):
        deliveries = []
        system = build_paper_like_system(
            delivery_callback=lambda process, event: deliveries.append(
                (process.pid, event.event_id)
            )
        )
        event = system.publish(T2)
        system.run_until_idle()
        assert len(deliveries) == len(set(deliveries))
        assert len(deliveries) == system.tracker.delivery_count(event.event_id)
        # many copies reached the group: the dedup set absorbed them
        assert system.stats.delivered_by_kind["event"] > len(deliveries)

    def test_lossy_channels_degrade_gracefully(self):
        system = build_paper_like_system(p_success=0.85, seed=3)
        event = system.publish(T2)
        system.run_until_idle()
        assert system.delivered_fraction(event, T2) > 0.9

    def test_stillborn_failures_reduce_coverage(self):
        # Half the processes dead: coverage among alive should still be
        # substantial but below the failure-free case in lower groups.
        pids = list(range(125))
        failure = StillbornFailures(set(pids[1::2]))  # every other pid
        system = build_paper_like_system(failure_model=failure, seed=5)
        alive_t2 = [
            p for p in system.group(T2) if system.harness.is_alive(p.pid)
        ]
        event = system.publish(T2, publisher=alive_t2[0])
        system.run_until_idle()
        fraction = system.delivered_fraction(event, T2, alive_only=True)
        assert 0.3 <= fraction <= 1.0

    def test_publish_with_no_alive_member_raises(self):
        failure = StillbornFailures(set(range(200)))
        system = build_paper_like_system(failure_model=failure)
        with pytest.raises(UnknownTopic):
            system.publish(T2)


class TestQueries:
    def test_group_listing(self):
        system = build_paper_like_system()
        assert len(system.group(T2)) == 100
        assert len(system.group_pids(T1)) == 20
        assert system.group(".unused") == []

    def test_topics(self):
        system = build_paper_like_system()
        assert system.topics() == [ROOT, T1, T2]

    def test_interests_mapping(self):
        system = build_paper_like_system(sizes=(1, 1, 1))
        interests = system.interests()
        assert len(interests) == 3
        assert set(interests.values()) == {ROOT, T1, T2}

    def test_memory_footprints(self):
        system = build_paper_like_system()
        footprints = system.memory_footprints(T2)
        params = TopicParams(fanout_log_base=10)
        bound = params.table_capacity(100) + params.z
        assert all(fp <= bound for fp in footprints)

    def test_process_lookup(self):
        system = build_paper_like_system(sizes=(1, 1, 1))
        pid = system.group_pids(ROOT)[0]
        assert system.process(pid).topic == ROOT
        with pytest.raises(UnknownTopic):
            system.process(10_000)

    def test_add_group_validation(self):
        system = DaMulticastSystem(mode="static")
        with pytest.raises(ConfigError):
            system.add_group(T2, 0)
