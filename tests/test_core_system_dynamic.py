"""End-to-end tests of the dynamic (full-protocol) mode.

These exercise what the paper's own simulation froze: the FIND_SUPER_CONTACT
bootstrap over the weakly-consistent overlay, membership convergence, the
KEEP_TABLE_UPDATED repair loop, and dissemination on live tables.
"""

import pytest

from repro.core import DaMulticastConfig, DaMulticastSystem, TopicParams
from repro.failures import ChurnSchedule
from repro.topics import ROOT, Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


def build_dynamic_system(*, seed=0, sizes=(3, 8, 20), failure_model=None, config=None):
    system = DaMulticastSystem(
        config=config or DaMulticastConfig(),
        seed=seed,
        mode="dynamic",
        failure_model=failure_model,
    )
    system.add_group(ROOT, sizes[0])
    system.add_group(T1, sizes[1])
    system.add_group(T2, sizes[2])
    return system


class TestBootstrap:
    def test_super_tables_get_initialized(self):
        system = build_dynamic_system()
        system.run(until=30.0)
        initialized = [
            p for p in system.group(T2) if not p.super_table.is_empty
        ]
        # Bootstrapping + piggybacking should initialize nearly everyone.
        assert len(initialized) >= 0.8 * len(system.group(T2))

    def test_super_tables_point_at_direct_super(self):
        system = build_dynamic_system()
        system.run(until=30.0)
        for process in system.group(T2):
            if not process.super_table.is_empty:
                assert process.super_table.target_topic == T1

    def test_search_skips_unpopulated_levels(self):
        # No T1 members: T2's supertopic tables must fall back to the root.
        system = DaMulticastSystem(mode="dynamic", seed=1)
        system.add_group(ROOT, 4)
        system.add_group(T2, 10)
        system.run(until=40.0)
        targeted_root = [
            p
            for p in system.group(T2)
            if p.super_table.target_topic == ROOT and len(p.super_table)
        ]
        assert len(targeted_root) >= 5

    def test_search_stops_after_direct_contact_found(self):
        system = build_dynamic_system()
        system.run(until=40.0)
        still_searching = [
            p
            for p in system.group(T2)
            if p.find_super_contact.active
            and p.super_table.targets_direct_super_of(T2)
        ]
        assert still_searching == []

    def test_root_processes_never_bootstrap(self):
        system = build_dynamic_system()
        system.run(until=10.0)
        for process in system.group(ROOT):
            assert not process.find_super_contact.active
            assert process.super_table.is_empty


class TestMembershipConvergence:
    def test_topic_tables_populate(self):
        system = build_dynamic_system()
        system.run(until=30.0)
        for process in system.group(T2):
            assert len(process.topic_table()) >= 1

    def test_no_cross_topic_pollution(self):
        system = build_dynamic_system()
        system.run(until=30.0)
        for process in system.processes:
            for descriptor in process.topic_table().descriptors():
                assert descriptor.topic == process.topic


class TestDynamicDissemination:
    def test_event_reaches_own_group_and_supergroups(self):
        system = build_dynamic_system(seed=2)
        system.run(until=30.0)  # let membership converge
        event = system.publish(T2)
        system.run(until=60.0)
        assert system.delivered_fraction(event, T2) >= 0.9
        assert system.delivered_fraction(event, T1) >= 0.5
        assert system.delivered_fraction(event, ROOT) >= 0.5

    def test_no_parasite_deliveries(self):
        system = build_dynamic_system(seed=3)
        system.run(until=30.0)
        event = system.publish(T1)
        system.run(until=60.0)
        # T2 processes are not interested in T1 events; the protocol
        # invariant would raise on any parasite delivery. Check zero too:
        assert system.delivered_fraction(event, T2) == 0.0

    def test_publish_on_unsubscribed_process_autosubscribes(self):
        system = build_dynamic_system()
        process = system.add_process(T2, subscribe=False)
        assert not process.subscribed
        process.publish("late")
        assert process.subscribed


class TestMaintenance:
    def test_super_table_repaired_after_crash(self):
        # Crash every T1 process that a T2 process points at; maintenance
        # must replace the dead entries with fresh T1 members.
        schedule = ChurnSchedule()
        system = build_dynamic_system(
            seed=4,
            failure_model=schedule,
            config=DaMulticastConfig(
                default_params=TopicParams(g=50),  # probe often in tiny groups
                maintain_interval=1.0,
                ping_timeout=0.5,
            ),
        )
        system.run(until=20.0)
        victims = set()
        t2 = system.group(T2)
        target = next(p for p in t2 if len(p.super_table) > 0)
        victims.update(target.super_table.pids)
        for pid in victims:
            schedule.crash_at(pid, 21.0)
        system.run(until=120.0)
        survivors = [
            pid for pid in target.super_table.pids if pid not in victims
        ]
        # The table should now contain at least one fresh (non-victim) entry
        # or have been cleared for re-bootstrap and refilled.
        assert len(survivors) >= 1

    def test_maintenance_not_started_for_root(self):
        system = build_dynamic_system()
        system.run(until=5.0)
        for process in system.group(ROOT):
            assert process.maintenance._task is None


class TestLateJoin:
    def test_late_joiner_integrates(self):
        system = build_dynamic_system(seed=5)
        system.run(until=20.0)
        late = system.add_process(T2)
        system.run(until=60.0)
        assert len(late.topic_table()) >= 1
        event = system.publish(T2)
        system.run(until=90.0)
        assert late.pid in system.tracker.receivers(event.event_id) or (
            system.delivered_fraction(event, T2) >= 0.9
        )

    def test_first_process_of_new_topic_bootstraps_upward(self):
        system = build_dynamic_system(seed=6)
        system.run(until=20.0)
        t3 = Topic.parse(".t1.t2.t3")
        newcomer = system.add_process(t3)
        system.run(until=60.0)
        assert newcomer.super_table.target_topic == T2
        assert len(newcomer.super_table) >= 1
