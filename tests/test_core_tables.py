"""Unit tests for the supertopic table (MERGE/CHECK semantics)."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.tables import SuperTopicTable
from repro.errors import MembershipError
from repro.membership import ColumnarSuperBuilder, ProcessDescriptor
from repro.topics import ROOT, Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


def descs(topic, pids):
    return [ProcessDescriptor(pid, topic) for pid in pids]


RNG = random.Random(0)


class TestAdopt:
    def test_adopt_sets_target(self):
        table = SuperTopicTable(z=3)
        assert table.adopt(T1, descs(T1, [1, 2]), RNG, own_topic=T2)
        assert table.target_topic == T1
        assert len(table) == 2

    def test_adopt_rejects_non_supertopic(self):
        table = SuperTopicTable(z=3)
        sibling = Topic.parse(".other")
        assert not table.adopt(sibling, descs(sibling, [1]), RNG, own_topic=T2)
        assert table.is_empty

    def test_adopt_rejects_own_topic(self):
        table = SuperTopicTable(z=3)
        assert not table.adopt(T2, descs(T2, [1]), RNG, own_topic=T2)

    def test_adopt_filters_wrong_topic_descriptors(self):
        table = SuperTopicTable(z=3)
        mixed = descs(T1, [1]) + descs(ROOT, [9])
        table.adopt(T1, mixed, RNG, own_topic=T2)
        assert table.pids == [1]

    def test_deeper_supertopic_retargets(self):
        table = SuperTopicTable(z=3)
        table.adopt(ROOT, descs(ROOT, [1, 2]), RNG, own_topic=T2)
        assert table.target_topic == ROOT
        table.adopt(T1, descs(T1, [10]), RNG, own_topic=T2)
        assert table.target_topic == T1
        assert table.pids == [10]  # root entries evicted

    def test_shallower_supertopic_ignored(self):
        table = SuperTopicTable(z=3)
        table.adopt(T1, descs(T1, [10]), RNG, own_topic=T2)
        assert not table.adopt(ROOT, descs(ROOT, [1]), RNG, own_topic=T2)
        assert table.target_topic == T1

    def test_same_topic_merges(self):
        table = SuperTopicTable(z=3)
        table.adopt(T1, descs(T1, [1]), RNG, own_topic=T2)
        table.adopt(T1, descs(T1, [2]), RNG, own_topic=T2)
        assert set(table.pids) == {1, 2}

    def test_capacity_z(self):
        table = SuperTopicTable(z=2)
        table.adopt(T1, descs(T1, [1, 2, 3, 4]), RNG, own_topic=T2)
        assert len(table) == 2


class TestMergeFresh:
    def test_replaces_failed_keeps_favorites(self):
        table = SuperTopicTable(z=3)
        table.adopt(T1, descs(T1, [1, 2, 3]), RNG, own_topic=T2)
        admitted = table.merge_fresh([1, 2], descs(T1, [10, 11, 12]))
        assert admitted == 2
        assert 3 in table  # favorite survived
        assert len(table) == 3

    def test_rejects_wrong_topic_fresh(self):
        table = SuperTopicTable(z=3)
        table.adopt(T1, descs(T1, [1]), RNG, own_topic=T2)
        admitted = table.merge_fresh([], descs(ROOT, [9]))
        assert admitted == 0

    def test_on_empty_table_with_no_target(self):
        table = SuperTopicTable(z=3)
        assert table.merge_fresh([], descs(T1, [1])) == 0


class TestCheck:
    def test_check_counts_recent_proofs(self):
        table = SuperTopicTable(z=3)
        table.adopt(T1, descs(T1, [1, 2, 3]), RNG, own_topic=T2)
        table.record_proof_of_life(1, now=10.0)
        table.record_proof_of_life(2, now=5.0)
        assert table.check(now=10.0, timeout=2.0) == 1
        assert table.check(now=10.0, timeout=6.0) == 2

    def test_never_heard_from_is_dead(self):
        table = SuperTopicTable(z=3)
        table.adopt(T1, descs(T1, [1]), RNG, own_topic=T2)
        assert table.check(now=0.0, timeout=100.0) == 0

    def test_proof_for_unknown_pid_ignored(self):
        table = SuperTopicTable(z=3)
        table.adopt(T1, descs(T1, [1]), RNG, own_topic=T2)
        table.record_proof_of_life(99, now=1.0)
        assert table.check(now=1.0, timeout=1.0) == 0

    def test_alive_and_stale_pids(self):
        table = SuperTopicTable(z=3)
        table.adopt(T1, descs(T1, [1, 2]), RNG, own_topic=T2)
        table.record_proof_of_life(1, now=1.0)
        assert table.alive_pids(now=1.0, timeout=1.0) == [1]
        assert table.stale_pids(now=1.0, timeout=1.0) == [2]

    def test_remove_clears_proofs(self):
        table = SuperTopicTable(z=3)
        table.adopt(T1, descs(T1, [1]), RNG, own_topic=T2)
        table.record_proof_of_life(1, now=1.0)
        table.remove(1)
        assert table.check(now=1.0, timeout=10.0) == 0
        assert table.is_empty


class TestQueries:
    def test_targets_direct_super(self):
        table = SuperTopicTable(z=3)
        table.adopt(T1, descs(T1, [1]), RNG, own_topic=T2)
        assert table.targets_direct_super_of(T2)
        assert not table.targets_direct_super_of(Topic.parse(".t1.t2.t3"))

    def test_clear(self):
        table = SuperTopicTable(z=3)
        table.adopt(T1, descs(T1, [1]), RNG, own_topic=T2)
        table.clear()
        assert table.is_empty
        assert table.target_topic is None

    def test_sample(self):
        table = SuperTopicTable(z=3)
        table.adopt(T1, descs(T1, [1, 2, 3]), RNG, own_topic=T2)
        assert len(table.sample(2, RNG)) == 2

    def test_iteration_and_contains(self):
        table = SuperTopicTable(z=3)
        table.adopt(T1, descs(T1, [1, 2]), RNG, own_topic=T2)
        assert {d.pid for d in table} == {1, 2}
        assert 1 in table
        assert 9 not in table


class TestInstall:
    """``install`` is what the static build leaves in a table: the same
    content, order, target and RNG end-state as ``clear()`` + ``adopt()``
    of a fresh ``z``-sample of the supergroup."""

    @given(
        z=st.integers(min_value=1, max_value=8),
        supergroup=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        previous=st.sampled_from([None, ROOT, T1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_install_equals_clear_then_adopt(self, z, supergroup, seed, previous):
        def sample(rng):
            builder = ColumnarSuperBuilder(range(100, 100 + supergroup), z)
            builder.draw_row(rng)
            return descs(T1, builder.rows)

        tables, rngs = [], []
        for _ in range(2):
            table = SuperTopicTable(z)
            if previous is not None:  # whatever was there is replaced
                table.adopt(previous, descs(previous, [1, 2]), RNG)
                table.record_proof_of_life(1, now=0.0)
            tables.append(table)
            rngs.append(random.Random(seed))
        reference, installed = tables
        reference.clear()
        reference.adopt(T1, sample(rngs[0]), rngs[0], own_topic=T2)
        installed.install(T1, sample(rngs[1]))
        assert installed.pids == reference.pids
        assert len(installed) == min(z, supergroup)
        assert installed.descriptors() == reference.descriptors()
        assert installed.target_topic == reference.target_topic == T1
        assert installed.check(now=0.0, timeout=1.0) == 0
        assert rngs[1].getstate() == rngs[0].getstate()
        # and the table goes on behaving like the adopted one
        extra = descs(T1, [7, 8, 9])
        assert installed.adopt(T1, extra, rngs[1]) == reference.adopt(
            T1, extra, rngs[0]
        )
        assert installed.pids == reference.pids
        assert rngs[1].getstate() == rngs[0].getstate()

    def test_install_nothing_is_clear(self):
        table = SuperTopicTable(3)
        table.adopt(T1, descs(T1, [1, 2]), RNG)
        table.install(T1, [])
        assert table.is_empty and table.target_topic is None

    def test_install_over_capacity_rejected(self):
        with pytest.raises(MembershipError):
            SuperTopicTable(2).install(T1, descs(T1, [1, 2, 3]))
