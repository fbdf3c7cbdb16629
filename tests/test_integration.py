"""Cross-module integration tests.

Scenarios the unit tests don't reach: latency interacting with the
protocol, partitions healing, deep chains, branching hierarchies,
multi-event workload replay, and long dynamic runs under churn.
"""

import random

import pytest

from repro.core import DaMulticastConfig, DaMulticastSystem, TopicParams
from repro.failures import ChurnSchedule
from repro.net import StaticPartition, UniformLatency
from repro.topics import ROOT, Topic
from repro.topics.builders import balanced_tree, chain
from repro.workloads import PoissonSchedule, burst_schedule, replay_on

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


class TestLatency:
    def test_dissemination_takes_time_under_latency(self):
        system = DaMulticastSystem(
            seed=0, mode="static", latency=UniformLatency(0.5, 1.5)
        )
        system.add_group(ROOT, 3)
        system.add_group(T1, 10)
        system.add_group(T2, 30)
        system.finalize_static_membership()
        event = system.publish(T2)
        # Immediately after publishing, only direct recipients can have it.
        system.run(until=0.4)
        early = system.tracker.delivery_count(event.event_id)
        system.run_until_idle()
        final = system.tracker.delivery_count(event.event_id)
        assert early < final
        assert final >= 40  # nearly everyone

    def test_delivery_times_reflect_hop_latency(self):
        system = DaMulticastSystem(
            seed=1, mode="static", latency=UniformLatency(1.0, 1.0)
        )
        system.add_group(T2, 30)
        system.finalize_static_membership()
        event = system.publish(T2)
        system.run_until_idle()
        times = sorted(system.tracker.receivers(event.event_id).values())
        # First-hop recipients at t=1, deeper ones strictly later.
        assert min(t for t in times if t > 0) == pytest.approx(1.0)
        assert max(times) > 1.0


class TestPartitions:
    def test_partition_blocks_then_heals(self):
        system = DaMulticastSystem(seed=2, mode="static")
        system.add_group(T2, 20)
        system.finalize_static_membership()
        pids = system.group_pids(T2)
        island_a = pids[:10]
        island_b = pids[10:]
        system.network.install_partition_model(
            StaticPartition([island_a, island_b], heals_at=50.0)
        )
        publisher = system.process(island_a[0])
        event = system.publish(T2, publisher=publisher)
        system.run_until_idle()
        # Nothing crossed the partition.
        for pid in island_b:
            assert pid not in system.tracker.receivers(event.event_id)
        # After healing, a new publication reaches everyone.
        system.engine.schedule_at(60.0, lambda: None)
        system.run(until=60.0)
        second = system.publish(T2, publisher=publisher)
        system.run_until_idle()
        assert system.delivered_fraction(second, T2) == 1.0


class TestDeepChains:
    def test_event_climbs_six_levels(self):
        topics = chain(5, prefix="deep")
        system = DaMulticastSystem(
            seed=3,
            mode="static",
            config=DaMulticastConfig(
                default_params=TopicParams(g=10, a=2, z=2, c=4)
            ),
        )
        for topic in topics:
            system.add_group(topic, 12)
        system.finalize_static_membership()
        event = system.publish(topics[-1])
        system.run_until_idle()
        for topic in topics:
            assert system.delivered_fraction(event, topic) >= 0.9
        # Exactly 5 inter-group edges were used, one per level.
        assert len(system.stats.inter_group_sent) == 5


class TestBranchingHierarchies:
    def test_sibling_branches_isolated(self):
        hierarchy = balanced_tree(arity=2, depth=2)
        system = DaMulticastSystem(seed=4, mode="static")
        for topic in hierarchy.topics:
            system.add_group(topic, 8)
        system.finalize_static_membership()
        leaves = [topic for topic in hierarchy.topics if topic.depth == 2]
        event = system.publish(leaves[0])
        system.run_until_idle()
        # The publication branch and its ancestors receive...
        assert system.delivered_fraction(event, leaves[0]) == 1.0
        assert (
            system.delivered_fraction(event, leaves[0].super_topic) == 1.0
        )
        assert system.delivered_fraction(event, ROOT) == 1.0
        # ...while every other leaf's branch stays silent.
        for other in leaves[1:]:
            assert system.delivered_fraction(event, other) == 0.0

    def test_supertopic_with_many_children_serves_all(self):
        hierarchy = balanced_tree(arity=3, depth=1)
        system = DaMulticastSystem(seed=5, mode="static")
        leaves = [topic for topic in hierarchy.topics if not topic.is_root]
        system.add_group(ROOT, 6)
        for leaf in leaves:
            system.add_group(leaf, 10)
        system.finalize_static_membership()
        for leaf in leaves:
            event = system.publish(leaf)
            system.run_until_idle()
            assert system.delivered_fraction(event, ROOT) == 1.0


class TestWorkloadReplay:
    def test_burst_replay_delivers_every_event(self):
        system = DaMulticastSystem(seed=6, mode="static")
        system.add_group(T2, 25)
        system.finalize_static_membership()
        schedule = burst_schedule(T2, count=5, start=1.0, spacing=2.0)
        published = replay_on(system, schedule)
        system.run_until_idle()
        assert len(published) == 5
        for event in published:
            assert system.delivered_fraction(event, T2) == 1.0

    def test_poisson_replay_on_multiple_topics(self):
        system = DaMulticastSystem(seed=7, mode="static")
        system.add_group(ROOT, 3)
        system.add_group(T1, 10)
        system.add_group(T2, 20)
        system.finalize_static_membership()
        schedule = PoissonSchedule([T1, T2], rate=0.5, horizon=20.0)
        publications = schedule.generate(random.Random(7))
        published = replay_on(system, publications)
        system.run_until_idle()
        assert len(published) == len(publications)
        # Events were deduplicated per process: deliveries per event are
        # bounded by the interested population.
        for event in published:
            interested = [
                p
                for p in system.processes
                if p.topic.includes(event.topic)
            ]
            assert system.tracker.delivery_count(event.event_id) <= len(
                interested
            )


class TestLongRunChurn:
    def test_dynamic_system_survives_continuous_churn(self):
        churn = ChurnSchedule.random_churn(
            range(40),
            random.Random(8),
            crash_probability=0.4,
            horizon=80.0,
            recover_probability=0.7,
        )
        system = DaMulticastSystem(
            seed=8,
            mode="dynamic",
            failure_model=churn,
            config=DaMulticastConfig(
                default_params=TopicParams(g=20, c=4),
                maintain_interval=1.0,
                ping_timeout=0.5,
            ),
        )
        system.add_group(ROOT, 5)
        system.add_group(T1, 12)
        system.add_group(T2, 23)
        system.run(until=100.0)
        # After churn settles, an alive T2 member can still publish and
        # reach a majority of alive subscribers.
        alive_t2 = [
            p for p in system.group(T2) if system.harness.is_alive(p.pid)
        ]
        assert alive_t2
        event = system.publish(T2, publisher=alive_t2[0])
        system.run(until=140.0)
        assert system.delivered_fraction(event, T2) >= 0.5
