"""Tests for the declarative failure-campaign injector."""

import random

import pytest

from repro.baselines import GossipBroadcastSystem
from repro.core import DaMulticastConfig, DaMulticastSystem, TopicParams
from repro.errors import ConfigError
from repro.failures import ChurnSchedule
from repro.failures.injector import FailureCampaign
from repro.topics import ROOT, Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


def build(seed=0):
    schedule = ChurnSchedule()
    config = DaMulticastConfig(
        default_params=TopicParams(g=50, c=4, z=3),
        maintain_interval=1.0,
        ping_timeout=0.5,
    )
    system = DaMulticastSystem(
        config=config, seed=seed, mode="dynamic", failure_model=schedule
    )
    system.add_group(ROOT, 3)
    system.add_group(T1, 8)
    system.add_group(T2, 15)
    campaign = FailureCampaign(system, schedule, random.Random(seed))
    return system, schedule, campaign


class TestValidation:
    def test_mismatched_schedule_rejected(self):
        system, _, _ = build()
        with pytest.raises(ConfigError):
            FailureCampaign(system, ChurnSchedule(), random.Random(0))

    def test_invalid_fraction(self):
        system, schedule, campaign = build()
        with pytest.raises(ConfigError):
            campaign.kill_fraction(1.0, 1.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_action_times_rejected(self, bad):
        # Same NaN hazard as ChurnSchedule._add: an unguarded action time
        # would be scheduled at a NaN timestamp and poison the heap order.
        system, schedule, campaign = build()
        with pytest.raises(ConfigError):
            campaign.kill_fraction(bad, 0.5)
        with pytest.raises(ConfigError):
            campaign.kill_super_links(bad, T2)
        with pytest.raises(ConfigError):
            campaign.recover(bad, [1])
        with pytest.raises(ConfigError):
            campaign.recover_fraction(bad, 0.5)
        with pytest.raises(ConfigError):
            campaign.recover_all(bad)


class TestKillFraction:
    def test_kills_expected_share_of_group(self):
        system, schedule, campaign = build()
        campaign.kill_fraction(10.0, 0.5, topic=T2)
        system.run(until=11.0)
        dead = [
            pid
            for pid in system.group_pids(T2)
            if not schedule.is_alive(pid, 11.0)
        ]
        assert len(dead) == round(15 * 0.5)
        # Other groups untouched.
        assert all(schedule.is_alive(pid, 11.0) for pid in system.group_pids(T1))

    def test_kill_everyone_globally(self):
        system, schedule, campaign = build()
        campaign.kill_fraction(5.0, 1.0)
        system.run(until=6.0)
        assert all(
            not schedule.is_alive(p.pid, 6.0) for p in system.processes
        )

    def test_log_records_victims(self):
        system, schedule, campaign = build()
        campaign.kill_fraction(5.0, 0.4, topic=T1)
        system.run(until=6.0)
        assert len(campaign.log.killed_pids()) == round(8 * 0.4)


class TestKillSuperLinks:
    def test_severs_all_links(self):
        system, schedule, campaign = build()
        campaign.kill_super_links(20.0, T2)
        system.run(until=20.5)
        linked = set()
        for process in system.group(T2):
            linked.update(process.super_table.pids)
        killed = campaign.log.killed_pids()
        # Every link that existed at t=20 is dead...
        for _, kind, pids in campaign.log.actions:
            if kind == "crash_super_links":
                assert all(not schedule.is_alive(pid, 20.5) for pid in pids)

    def test_system_recovers_after_attack(self):
        system, schedule, campaign = build(seed=2)
        campaign.kill_super_links(20.0, T2)
        system.run(until=90.0)
        # Maintenance must have replaced dead links with live T1 members.
        healed = [
            p
            for p in system.group(T2)
            if any(
                schedule.is_alive(pid, system.now)
                for pid in p.super_table.pids
            )
        ]
        assert len(healed) >= len(system.group(T2)) // 2

    @pytest.mark.parametrize("system_class", ["static", "broadcast"])
    def test_refused_when_added_outside_dynamic_mode(self, system_class):
        # a static process keeps its row only: there is no supertopic
        # table to read when the action would run
        schedule = ChurnSchedule()
        if system_class == "static":
            system = DaMulticastSystem(
                seed=0, mode="static", failure_model=schedule
            )
        else:
            system = GossipBroadcastSystem(seed=0, failure_model=schedule)
        system.add_group(T1, 4)
        system.add_group(T2, 8)
        campaign = FailureCampaign(system, schedule, random.Random(0))
        with pytest.raises(ConfigError, match="mode='dynamic'"):
            campaign.kill_super_links(1.0, T2)
        assert system.engine.pending == 0
        assert campaign.log.actions == []


class TestRecovery:
    def test_recover_all(self):
        system, schedule, campaign = build()
        campaign.kill_fraction(5.0, 1.0, topic=T1)
        campaign.recover_all(15.0)
        system.run(until=16.0)
        assert all(schedule.is_alive(pid, 16.0) for pid in system.group_pids(T1))

    def test_recover_fraction(self):
        system, schedule, campaign = build()
        campaign.kill_fraction(5.0, 1.0, topic=T1)
        campaign.recover_fraction(15.0, 0.5)
        system.run(until=16.0)
        alive = [
            pid
            for pid in system.group_pids(T1)
            if schedule.is_alive(pid, 16.0)
        ]
        assert len(alive) == round(8 * 0.5)
        # The log records exactly the recovered sample.
        recovered = [
            pids for _, kind, pids in campaign.log.actions if kind == "recover"
        ]
        assert len(recovered) == 1 and sorted(recovered[0]) == sorted(alive)

    def test_recover_fraction_invalid(self):
        system, schedule, campaign = build()
        with pytest.raises(ConfigError):
            campaign.recover_fraction(1.0, 1.5)

    def test_recover_specific(self):
        system, schedule, campaign = build()
        victims = system.group_pids(T1)[:3]
        for pid in victims:
            schedule.crash_at(pid, 1.0)
        campaign.recover(10.0, victims[:2])
        system.run(until=11.0)
        assert schedule.is_alive(victims[0], 11.0)
        assert schedule.is_alive(victims[1], 11.0)
        assert not schedule.is_alive(victims[2], 11.0)
