"""Tests for the §IV-A naive pattern-(2) comparator."""

import pytest

from repro.baselines import NaivePublisherSystem
from repro.errors import ConfigError
from repro.metrics.delivery import parasite_deliveries
from repro.topics import ROOT, Topic
from repro.workloads import PaperScenario

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")
SIZES = {ROOT: 4, T1: 12, T2: 40}


def populate(system):
    for topic, count in SIZES.items():
        system.add_group(topic, count)
    system.finalize_static_membership()
    return system


def tables_of(system, pid):
    """group → ``pid``'s row in it, for every group whose tables seat
    ``pid``, in the actor's group order."""
    actor = system._actors[system.processes[0].topic]
    return {
        group: tables.row_pids(rows[pid])
        for group, pairs in actor.seats.items()
        for tables, _, rows in pairs
        if pid in rows
    }


class TestStructure:
    def test_publisher_holds_table_per_level(self):
        system = populate(NaivePublisherSystem(seed=0))
        t2_process = system.group(T2)[0]
        assert t2_process.table_count == 3  # own + T1 + root
        root_process = system.group(ROOT)[0]
        assert root_process.table_count == 1

    def test_publisher_groups_in_publish_order(self):
        # own group, then each populated supergroup walking up: the order
        # the publisher injects in, whatever order the groups were drawn
        system = populate(NaivePublisherSystem(seed=0, p_success=1.0))
        publisher = system.group(T2)[0]
        assert set(tables_of(system, publisher.pid)) == {T2, T1, ROOT}
        assert system._entry_groups(publisher.pid, T2) == [T2, T1, ROOT]
        assert system._entry_groups(system.group(T1)[0].pid, T1) == [T1, ROOT]
        system.publish(T2, publisher=publisher)
        system.run_until_idle()
        for group in (T2, T1, ROOT):
            assert system.stats.events_sent_in_group(group) > 0

    def test_groups_hold_direct_subscribers_only(self):
        system = populate(NaivePublisherSystem(seed=0))
        # A root subscriber never appears in a T2 subscriber's T2 table.
        root_pids = {p.pid for p in system.group(ROOT)}
        for process in system.group(T2):
            row = tables_of(system, process.pid)[T2]
            assert row and process.pid not in row
            assert root_pids.isdisjoint(row)

    def test_empty_supertopic_skipped(self):
        system = NaivePublisherSystem(seed=0)
        system.add_group(ROOT, 3)
        system.add_group(T2, 10)  # T1 unpopulated
        system.finalize_static_membership()
        process = system.group(T2)[0]
        assert set(tables_of(system, process.pid)) == {T2, ROOT}


class TestDissemination:
    def test_event_reaches_all_interested(self):
        system = populate(NaivePublisherSystem(seed=1))
        event = system.publish(T2)
        system.run_until_idle()
        interested = {
            pid for pid, topic in system.interests().items() if topic.includes(T2)
        }
        receivers = set(system.tracker.receivers(event.event_id))
        assert receivers == interested

    def test_no_parasites(self):
        system = populate(NaivePublisherSystem(seed=1))
        system.publish(T2)
        system.publish(T1)
        system.run_until_idle()
        assert parasite_deliveries(system.tracker, system.interests()) == 0

    def test_publisher_carries_all_levels(self):
        system = populate(NaivePublisherSystem(seed=2, p_success=1.0))
        publisher = system.group(T2)[0]
        system.publish(T2, publisher=publisher)
        system.run_until_idle()
        load = system.stats.events_sent_by_sender[publisher.pid]
        # The publisher alone pays >= one fan-out per populated level.
        per_level = [
            min(system.params.fanout(SIZES[t]), system.params.table_capacity(SIZES[t]))
            for t in (ROOT, T1, T2)
        ]
        assert load >= sum(per_level) - 3  # small-table slack

    def test_non_publishers_stay_cheap(self):
        system = populate(NaivePublisherSystem(seed=3, p_success=1.0))
        publisher = system.group(T2)[0]
        system.publish(T2, publisher=publisher)
        system.run_until_idle()
        publisher_load = system.stats.events_sent_by_sender[publisher.pid]
        other_loads = [
            system.stats.events_sent_by_sender[p.pid]
            for p in system.processes
            if p.pid != publisher.pid
        ]
        assert max(other_loads) < publisher_load

    def test_publisher_pays_more_than_damulticasts(self):
        # §IV-A at the §VII population, lossless: the naive publisher
        # injects into every level itself (8 + 7 + the root's 4-entry
        # table = 19 transmissions); daMulticast's pays one group's
        # fan-out, 8, plus at most z = 3 hand-offs.
        scenario = PaperScenario(p_succ=1.0)
        built = scenario.build(seed=0)
        built.execute()
        (event,) = built.published
        ours = built.system.stats.events_sent_by_sender[event.event_id.publisher]

        system = NaivePublisherSystem(
            seed=0, c=scenario.c, log_base=scenario.fanout_log_base
        )
        for topic, size in zip(scenario.topics(), scenario.sizes):
            system.add_group(topic, size)
        system.finalize_static_membership()
        publisher = system.group(scenario.topics()[-1])[0]
        system.publish(publisher.topic, publisher=publisher)
        system.run_until_idle()
        assert system.stats.events_sent_by_sender[publisher.pid] >= ours + 5

    def test_publish_requires_finalize(self):
        system = NaivePublisherSystem(seed=0)
        system.add_group(T2, 5)
        with pytest.raises(ConfigError):
            system.publish(T2)
