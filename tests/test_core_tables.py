"""Unit tests for the supertopic table (MERGE/CHECK semantics)."""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.tables import SuperTopicTable
from repro.membership import ProcessDescriptor
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
        assert 3 in table.pids  # favorite survived
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

    def test_descriptors_and_pids(self):
        table = SuperTopicTable(z=3)
        table.adopt(T1, descs(T1, [1, 2]), RNG, own_topic=T2)
        assert {d.pid for d in table.descriptors()} == {1, 2}
        assert sorted(table.pids) == [1, 2]


# ----------------------------------------------------------------------
# One target per table — what Fig. 7 relies on
# ----------------------------------------------------------------------
#
# A dynamic process hands an event up as one super block: every entry of
# its supertopic table, under one ``Scope("inter", topic, target_topic)``.
# That is sound only if the table never holds a descriptor of another
# topic, whatever sequence of adopts (several topics and depths), fresh
# merges (descriptors of mixed topics) and clears it goes through.

OWN = Topic.parse(".a.b.c.d")
#: the own topic's strict supertopics, at every depth, and topics that
#: are not supertopics of it (a sibling and a cousin)
TOPICS = [Topic.parse(name) for name in (".", ".a", ".a.b", ".a.b.c", ".a.x", ".y")]

pid_lists = st.lists(st.integers(min_value=0, max_value=40), max_size=8)
mixed_descriptors = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40), st.sampled_from(TOPICS)),
    max_size=8,
).map(lambda pairs: [ProcessDescriptor(pid, topic) for pid, topic in pairs])
steps = st.one_of(
    st.tuples(
        st.just("adopt"),
        st.sampled_from(TOPICS),
        mixed_descriptors,
        st.booleans(),
    ),
    st.tuples(st.just("merge_fresh"), pid_lists, mixed_descriptors),
    st.tuples(st.just("clear")),
)


@given(
    z=st.integers(min_value=1, max_value=6),
    script=st.lists(steps, max_size=30),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=300, deadline=None)
def test_every_entry_is_of_the_target_topic(z, script, seed):
    rng = random.Random(seed)
    table = SuperTopicTable(z)
    for step in script:
        if step[0] == "adopt":
            _, topic, descriptors, guarded = step
            table.adopt(topic, descriptors, rng, own_topic=OWN if guarded else None)
        elif step[0] == "merge_fresh":
            _, stale, fresh = step
            table.merge_fresh(stale, fresh)
        else:
            table.clear()
        assert len(table) <= z
        assert all(d.topic is table.target_topic for d in table.descriptors())
        if table.target_topic is None:
            assert table.is_empty
