"""Property-based tests: PartialView and SuperTopicTable invariants."""

import math
import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.tables import SuperTopicTable
from repro.membership import PartialView, ProcessDescriptor
from repro.membership.sampling import sample_from
from repro.topics import Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 40)),
        st.tuples(st.just("remove"), st.integers(0, 40)),
    ),
    max_size=60,
)


@given(st.integers(1, 8), operations, st.integers(0, 2**32))
@settings(max_examples=150)
def test_view_never_exceeds_capacity_and_has_no_duplicates(
    capacity, ops, seed
):
    rng = random.Random(seed)
    view = PartialView(capacity)
    for op, pid in ops:
        if op == "add":
            view.add(ProcessDescriptor(pid, T2), rng)
        else:
            view.remove(pid)
        assert len(view) <= capacity
        pids = view.pids
        assert len(pids) == len(set(pids))


@given(
    st.integers(1, 8),
    st.lists(st.integers(0, 30), min_size=0, max_size=30),
    st.integers(0, 2**32),
)
def test_view_membership_reflects_adds_below_capacity(capacity, pids, seed):
    rng = random.Random(seed)
    view = PartialView(capacity)
    unique = list(dict.fromkeys(pids))
    for pid in unique:
        view.add(ProcessDescriptor(pid, T2), rng)
    if len(unique) <= capacity:
        # No eviction could have happened: everyone must be present.
        assert sorted(view.pids) == sorted(unique)


@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=20, unique=True),
    st.integers(0, 10),
    st.integers(0, 2**32),
)
def test_sample_is_subset_without_excluded(pids, k, seed):
    rng = random.Random(seed)
    view = PartialView(32)
    for pid in pids:
        view.add(ProcessDescriptor(pid, T2), rng)
    exclude = set(pids[::2])
    sample = view.sample(k, rng, exclude=exclude)
    sample_pids = [d.pid for d in sample]
    assert len(sample_pids) == len(set(sample_pids))
    assert set(sample_pids) <= set(pids) - exclude
    assert len(sample) == min(k, len(set(pids) - exclude))


@given(
    st.lists(st.integers(0, 20), min_size=0, max_size=10, unique=True),
    st.lists(st.integers(21, 40), min_size=0, max_size=10, unique=True),
    st.integers(0, 2**32),
)
def test_super_table_merge_fresh_keeps_capacity_and_favorites(
    initial, fresh, seed
):
    rng = random.Random(seed)
    table = SuperTopicTable(z=3)
    table.adopt(
        T1, [ProcessDescriptor(p, T1) for p in initial], rng, own_topic=T2
    )
    survivors = table.pids[1:]  # drop the oldest as "failed"
    stale = table.pids[:1]
    table.merge_fresh(stale, [ProcessDescriptor(p, T1) for p in fresh])
    assert len(table) <= 3
    for pid in survivors:
        assert pid in table.pids  # favorites always survive MERGE
    for pid in stale:
        assert pid not in table.pids


@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=10, unique=True),
    st.floats(0.0, 50.0),
    st.floats(0.1, 10.0),
    st.integers(0, 2**32),
)
def test_check_counts_are_consistent(pids, now, timeout, seed):
    rng = random.Random(seed)
    table = SuperTopicTable(z=len(pids))
    table.adopt(
        T1, [ProcessDescriptor(p, T1) for p in pids], rng, own_topic=T2
    )
    for pid in pids[::2]:
        table.record_proof_of_life(pid, now)
    alive = table.alive_pids(now, timeout)
    stale = table.stale_pids(now, timeout)
    assert table.check(now, timeout) == len(alive)
    assert sorted(alive + stale) == sorted(table.pids)


# ----------------------------------------------------------------------
# The sampler's contract: a pid sample is the descriptor sample is the
# stdlib sample, selection for selection and draw for draw
# ----------------------------------------------------------------------
OWN_PID = 10_000  # a process's own pid: never in its own table


def filled_view(n):
    view = PartialView(max(1, n))
    for i in range(n):
        view.add(ProcessDescriptor(100 + i, T2))
    return view


def assert_one_sample(view, k, seed, exclude_pid=OWN_PID):
    """The pids of ``sample`` == the pids of ``random.sample``, and both
    leave their generator in the same state."""
    rng_descriptors, rng_stdlib = random.Random(seed), random.Random(seed)
    candidates = [d for d in view.descriptors() if d.pid != exclude_pid]
    expected = (
        candidates if k >= len(candidates) else rng_stdlib.sample(candidates, k)
    )
    descriptors = view.sample(k, rng_descriptors, exclude=(exclude_pid,))
    assert [d.pid for d in descriptors] == [d.pid for d in expected]
    assert rng_descriptors.getstate() == rng_stdlib.getstate()


@given(st.integers(0, 130), st.integers(0, 140), st.integers(0, 2**32))
@settings(max_examples=300)
def test_pid_sample_is_the_descriptor_sample_is_the_stdlib_sample(n, k, seed):
    # n up to 130 puts k <= 5 (threshold 21) and 6 <= k <= 21 (threshold
    # 85) on both sides of random.sample's branch; k may exceed n
    assert_one_sample(filled_view(n), k, seed)


def test_both_branches_of_the_sampler_at_their_thresholds():
    for k in (1, 5, 6, 10, 21, 22, 85, 86):
        # CPython's own expression for random.sample's branch threshold
        threshold = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
        for n in (threshold - 1, threshold, threshold + 1, threshold + 2):
            for seed in range(5):
                assert_one_sample(filled_view(n), k, seed)


def test_sampler_at_and_just_past_powers_of_two():
    # The pool branch re-derives the draw width only when the pool shrinks
    # below a power of two: start there, one above, and at the empty window.
    assert sample_from(None, 0, 0, 0, random.Random(1)) == []
    for n in sorted({size for j in range(9) for size in (2**j, 2**j + 1)}):
        window = [1000 + i for i in range(n)]
        for k in range(n + 1):
            for seed in range(3):
                mine, stdlib = random.Random(seed), random.Random(seed)
                padded = [-1, -2] + window
                assert sample_from(padded, 2, n, k, mine) == stdlib.sample(
                    window, k
                )
                assert mine.getstate() == stdlib.getstate()
                positions = sample_from(None, 0, n, k, mine)
                assert positions == stdlib.sample(range(n), k)
                assert mine.getstate() == stdlib.getstate()


def test_pool_draw_over_a_list_row_leaves_the_row_unchanged():
    # The pool branch shuffles its window in place: over a list it works on
    # the window's slice, never on the caller's row, whole or windowed
    row = [100 + i for i in range(20)]
    before = list(row)
    for start, n in ((0, 20), (3, 12)):
        for k in (1, 7, n):
            mine, stdlib = random.Random(k), random.Random(k)
            assert sample_from(row, start, n, k, mine) == stdlib.sample(
                before[start : start + n], k
            )
            assert row == before


@given(st.integers(1, 130), st.integers(0, 140), st.integers(0, 2**32), st.data())
@settings(max_examples=200)
def test_pid_sample_with_the_excluded_pid_in_the_view(n, k, seed, data):
    view = filled_view(n)
    present = 100 + data.draw(st.integers(0, n - 1))
    assert_one_sample(view, k, seed, exclude_pid=present)
    assert present not in [
        d.pid for d in view.sample(n, random.Random(seed), (present,))
    ]


mutations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 60)),
        st.tuples(st.just("remove"), st.integers(0, 60)),
        st.tuples(st.just("replace"), st.integers(0, 60)),
        st.tuples(st.just("set_capacity"), st.integers(1, 12)),
        st.tuples(st.just("evict"), st.just(0)),
        st.tuples(st.just("clear"), st.just(0)),
    ),
    min_size=1,
    max_size=40,
)


@given(mutations, st.integers(0, 12), st.integers(0, 2**32))
@settings(max_examples=200)
def test_pid_sample_is_never_stale_after_a_mutation(ops, k, seed):
    rng = random.Random(seed)
    view = PartialView(12)
    for op, value in ops:
        if op == "add":
            view.add(ProcessDescriptor(value, T2), rng)
        elif op == "remove":
            view.remove(value)
        elif op == "replace":
            view.replace(view.pids[:1], [ProcessDescriptor(value, T2)])
        elif op == "set_capacity":
            view.set_capacity(value, rng)
        elif op == "evict" and len(view):
            view._evict_uniform(rng, "test")
        elif op == "clear":
            view.clear()
        # a sample between every two mutations, so a snapshot taken
        # before the mutation would be served here if anything kept one
        assert_one_sample(view, k, seed)
        assert [d.pid for d in view.sample(99, rng)] == view.pids == list(view._entries)
