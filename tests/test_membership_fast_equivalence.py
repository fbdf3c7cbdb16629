"""Reference-vs-fast equivalence for the static membership build context.

The fast paths (:class:`~repro.membership.static.GroupTableBuilder`,
:class:`~repro.membership.static.GroupSampler`) must be *draw-for-draw*
identical to the historical per-member implementations kept as
``_reference_draw_topic_table`` / ``_reference_draw_super_table``:
identical view contents in identical insertion order, **and** an identical
RNG end-state (so everything drawn afterwards in a simulation is unchanged
— the property the golden trajectory tests rely on).

The equivalence rests on ``random.Random.sample`` being purely positional
(its draws depend only on ``(len(population), k)``) and on the fast paths
mirroring its internal pool-vs-selection-set branch point; the strategies
below deliberately straddle that threshold (population sizes from tiny to
several hundred, capacities from 1 to 64).
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import ConfigError
from repro.membership.static import (
    GroupSampler,
    GroupTableBuilder,
    _reference_draw_super_table,
    _reference_draw_topic_table,
    draw_super_table,
    draw_topic_table,
)
from repro.membership.view import ProcessDescriptor
from repro.topics.topic import Topic

T = Topic.parse(".eq")


def group_of(n: int) -> list[ProcessDescriptor]:
    # Non-contiguous pids so positional and pid-based indexing can't be
    # accidentally conflated.
    return [ProcessDescriptor(3 * i + 7, T) for i in range(n)]


@given(
    n=st.integers(min_value=1, max_value=400),
    capacity=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_topic_table_builder_matches_reference(n, capacity, seed):
    group = group_of(n)
    ref_rng = random.Random(seed)
    fast_rng = random.Random(seed)
    builder = GroupTableBuilder(group)
    for index, member in enumerate(group):
        ref = _reference_draw_topic_table(member, group, capacity, ref_rng)
        fast = builder.table_at(index, capacity, fast_rng)
        assert fast.pids == ref.pids
        assert fast.descriptors() == ref.descriptors()
        assert fast.capacity == ref.capacity
    assert fast_rng.getstate() == ref_rng.getstate()


@given(
    n=st.integers(min_value=1, max_value=400),
    capacity=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    indices=st.lists(st.integers(min_value=0, max_value=10**6), max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_builder_out_of_order_access_matches_reference(n, capacity, seed, indices):
    """table_at need not be called in ascending order to stay identical."""
    group = group_of(n)
    visit = [i % n for i in indices]
    ref_rng = random.Random(seed)
    fast_rng = random.Random(seed)
    builder = GroupTableBuilder(group)
    for index in visit:
        ref = _reference_draw_topic_table(group[index], group, capacity, ref_rng)
        fast = builder.table_at(index, capacity, fast_rng)
        assert fast.pids == ref.pids
    assert fast_rng.getstate() == ref_rng.getstate()


@given(
    n=st.integers(min_value=1, max_value=400),
    z=st.integers(min_value=0, max_value=64),
    members=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_group_sampler_matches_reference(n, z, members, seed):
    """Repeated z-draws from one shared supergroup list match the
    historical copy-the-population-per-member code, draw for draw."""
    super_group = group_of(n)
    ref_rng = random.Random(seed)
    fast_rng = random.Random(seed)
    sampler = GroupSampler(super_group)
    for _ in range(members):
        ref = _reference_draw_super_table(super_group, z, ref_rng)
        fast = sampler.table(z, fast_rng)
        assert fast.pids == ref.pids
        assert fast.capacity == ref.capacity
    assert fast_rng.getstate() == ref_rng.getstate()


@given(
    n=st.integers(min_value=1, max_value=200),
    capacity=st.integers(min_value=1, max_value=48),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_public_wrappers_match_reference(n, capacity, seed):
    group = group_of(n)
    member = group[n // 2]
    r1, r2 = random.Random(seed), random.Random(seed)
    assert (
        draw_topic_table(member, group, capacity, r1).pids
        == _reference_draw_topic_table(member, group, capacity, r2).pids
    )
    assert r1.getstate() == r2.getstate()
    r1, r2 = random.Random(seed ^ 1), random.Random(seed ^ 1)
    assert (
        draw_super_table(group, capacity, r1).pids
        == _reference_draw_super_table(group, capacity, r2).pids
    )
    assert r1.getstate() == r2.getstate()


def test_duplicate_pids_are_a_config_error():
    """No group of registered processes lists a pid twice, and positional
    exclusion would drop only one of its entries: the builder refuses."""
    group = [ProcessDescriptor(pid, T) for pid in (4, 7, 4)]
    with pytest.raises(ConfigError, match="more than once"):
        GroupTableBuilder(group)


@given(
    n=st.integers(min_value=2, max_value=200),
    capacity=st.integers(min_value=1, max_value=48),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_outsider_member_matches_reference(n, capacity, seed):
    """A member whose pid is not in the group (the naive-publisher
    supergroup-table case) samples the full population identically."""
    group = group_of(n)
    outsider = ProcessDescriptor(10**9, T)
    r1, r2 = random.Random(seed), random.Random(seed)
    ref = _reference_draw_topic_table(outsider, group, capacity, r1)
    fast = GroupTableBuilder(group).table_for(outsider, capacity, r2)
    assert fast.pids == ref.pids
    assert r1.getstate() == r2.getstate()
