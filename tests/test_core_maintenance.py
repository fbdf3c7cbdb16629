"""Unit tests for KEEP_TABLE_UPDATED (Fig. 6)."""

from repro.core import DaMulticastConfig, DaMulticastSystem, TopicParams
from repro.failures import ChurnSchedule
from repro.topics import ROOT, Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


def build(*, seed=0, g=50.0, failure_model=None):
    """Small dynamic system with aggressive maintenance for fast tests."""
    config = DaMulticastConfig(
        default_params=TopicParams(g=g, c=4, z=3, tau=1),
        maintain_interval=1.0,
        ping_timeout=0.5,
        bootstrap_timeout=1.0,
    )
    system = DaMulticastSystem(
        config=config, seed=seed, mode="dynamic", failure_model=failure_model
    )
    system.add_group(ROOT, 3)
    system.add_group(T1, 8)
    system.add_group(T2, 15)
    return system


class TestProbing:
    def test_probes_happen_with_high_g(self):
        system = build()
        system.run(until=20.0)
        probing = [
            p for p in system.group(T2) if p.maintenance.probes_started > 0
        ]
        assert probing  # p_sel = min(1, 50/15) = 1: everyone probes

    def test_probes_rare_with_low_g(self):
        system = build(g=1.0)  # p_sel = 1/15 per tick
        system.run(until=5.0)
        total_probes = sum(
            p.maintenance.probes_started for p in system.group(T2)
        )
        # 15 processes * ~5 ticks * 1/15 ~ 5 expected, far below all-probing.
        assert total_probes <= 25

    def test_pings_answered_with_pongs(self):
        system = build()
        system.run(until=10.0)
        stats = system.stats
        assert stats.sent_by_kind["ping"] > 0
        assert stats.sent_by_kind["pong"] > 0

    def test_healthy_table_not_refreshed(self):
        system = build()
        system.run(until=20.0)
        # All superprocesses alive: CHECK > tau, no NEWPROCESS traffic
        # beyond the odd race at startup.
        refreshes = sum(
            p.maintenance.refreshes_requested for p in system.group(T2)
        )
        assert refreshes <= 5


class TestRepair:
    def test_dead_entries_replaced(self):
        churn = ChurnSchedule()
        system = build(failure_model=churn)
        system.run(until=15.0)
        victim_holder = next(
            p for p in system.group(T2) if len(p.super_table) >= 2
        )
        victims = list(victim_holder.super_table.pids)[:-1]  # keep one alive
        for pid in victims:
            churn.crash_at(pid, 15.0)
        system.run(until=60.0)
        live = [
            pid
            for pid in victim_holder.super_table.pids
            if system.harness.is_alive(pid)
        ]
        assert live, "maintenance must re-populate live superprocesses"

    def test_total_loss_triggers_rebootstrap(self):
        churn = ChurnSchedule()
        system = build(failure_model=churn)
        system.run(until=15.0)
        holder = next(
            p for p in system.group(T2) if not p.super_table.is_empty
        )
        for pid in list(holder.super_table.pids):
            churn.crash_at(pid, 15.0)
        # Run long enough for probe -> clear -> FIND_SUPER_CONTACT cycle.
        system.run(until=80.0)
        live = [
            pid
            for pid in holder.super_table.pids
            if system.harness.is_alive(pid)
        ]
        assert live

    def test_empty_table_restarts_search(self):
        system = build()
        system.run(until=15.0)
        process = system.group(T2)[0]
        process.super_table.clear()
        process.find_super_contact.stop()
        system.run(until=25.0)
        assert not process.super_table.is_empty or (
            process.find_super_contact.active
        )


class TestLifecycle:
    def test_root_processes_do_not_maintain(self):
        system = build()
        system.run(until=5.0)
        for process in system.group(ROOT):
            assert process.maintenance._task is None
