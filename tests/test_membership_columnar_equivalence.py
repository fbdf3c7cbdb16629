"""Columnar-vs-object equivalence for the static membership build.

The columnar backend (:mod:`repro.membership.columnar`) must be
*draw-for-draw* identical to the object backend it replaces at scale:
identical pid sequences in identical insertion order, **and** an identical
RNG end-state — the property that makes the two backends' construction
digests comparable at all. The strategies deliberately straddle
``random.Random.sample``'s internal pool-vs-selection-set branch point
(population sizes from tiny to several hundred, capacities from 1 to 64),
the same envelope test_membership_fast_equivalence.py covers for the
object-side fast paths.

The last tests are the PR's CI gate: on the existing S=500 construction
golden, the columnar system's digest must equal the object system's —
which must itself still equal the pinned constant.
"""

import random

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.core.columnar import ColumnarStaticSystem
from repro.core.system import DaMulticastSystem
from repro.membership.columnar import (
    ColumnarSuperBuilder,
    ColumnarTableBuilder,
    build_group_tables,
)
from repro.membership.static import GroupSampler, GroupTableBuilder
from repro.membership.view import ProcessDescriptor
from repro.topics.topic import Topic
from tests.test_golden_static import GOLDEN_LARGE_TABLE_DIGEST

T = Topic.parse(".eq")


def contiguous_group(base: int, n: int) -> list[ProcessDescriptor]:
    # The columnar backend requires contiguous pid blocks, so equivalence
    # is asserted over the contiguous case (with nonzero bases to keep
    # index and pid spaces distinct).
    return [ProcessDescriptor(base + i, T) for i in range(n)]


@given(
    base=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=1, max_value=400),
    capacity=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_columnar_table_builder_matches_object(base, n, capacity, seed):
    group = contiguous_group(base, n)
    obj_rng = random.Random(seed)
    col_rng = random.Random(seed)
    obj_builder = GroupTableBuilder(group)
    col_builder = ColumnarTableBuilder(base, n, capacity)
    for index in range(n):
        obj = obj_builder.table_at(index, capacity, obj_rng)
        col_builder.draw_row(index, col_rng)
        start = index * col_builder.stride
        row = col_builder.rows[start : start + col_builder.stride].tolist()
        assert row == obj.pids
    assert col_rng.getstate() == obj_rng.getstate()


@given(
    base=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=1, max_value=400),
    z=st.integers(min_value=1, max_value=64),
    members=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_columnar_super_builder_matches_object(base, n, z, members, seed):
    super_group = contiguous_group(base, n)
    obj_rng = random.Random(seed)
    col_rng = random.Random(seed)
    sampler = GroupSampler(super_group)
    builder = ColumnarSuperBuilder(base, n, z)
    for index in range(members):
        obj = sampler.table(z, obj_rng)
        builder.draw_row(col_rng)
        start = index * builder.stride
        row = builder.rows[start : start + builder.stride].tolist()
        assert row == obj.pids
    assert col_rng.getstate() == obj_rng.getstate()


@given(
    base=st.integers(min_value=0, max_value=10**4),
    n=st.integers(min_value=1, max_value=200),
    capacity=st.integers(min_value=1, max_value=48),
    super_n=st.integers(min_value=1, max_value=200),
    z=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_build_group_tables_interleaving_matches_object(
    base, n, capacity, super_n, z, seed
):
    """The whole-group build interleaves topic and super draws per member
    exactly as finalize_static_membership does over one shared stream."""
    super_base = base + n
    group = contiguous_group(base, n)
    super_group = [
        ProcessDescriptor(super_base + i, Topic.parse("."))
        for i in range(super_n)
    ]
    obj_rng = random.Random(seed)
    obj_builder = GroupTableBuilder(group)
    obj_sampler = GroupSampler(super_group)
    obj_rows, obj_super_rows = [], []
    for index in range(n):
        obj_rows.append(obj_builder.table_at(index, capacity, obj_rng).pids)
        obj_super_rows.append(obj_sampler.table(z, obj_rng).pids)

    col_rng = random.Random(seed)
    tables = build_group_tables(
        T,
        base,
        n,
        capacity,
        col_rng,
        super_topic=Topic.parse("."),
        super_base=super_base,
        super_size=super_n,
        z=z,
    )
    for index in range(n):
        assert tables.row_pids(index) == obj_rows[index]
        assert tables.super_row_pids(index) == obj_super_rows[index]
    assert col_rng.getstate() == obj_rng.getstate()


@given(
    n=st.integers(min_value=2, max_value=300),
    capacity=st.integers(min_value=1, max_value=32),
    k=st.integers(min_value=1, max_value=32),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_sample_row_is_uniform_over_the_row(n, capacity, k, seed):
    """Index-based row sampling returns distinct in-row pids and never the
    member's own pid (exclusion is built into construction)."""
    rng = random.Random(seed)
    tables = build_group_tables(T, 100, n, capacity, rng)
    index = seed % n
    drawn = tables.sample_row(index, k, rng)
    row = tables.row_pids(index)
    assert len(drawn) == min(k, len(row))
    assert len(set(drawn)) == len(drawn)
    assert set(drawn) <= set(row)
    assert (100 + index) not in drawn


@given(
    n=st.integers(min_value=2, max_value=300),
    capacity=st.integers(min_value=1, max_value=64),
    k=st.integers(min_value=1, max_value=70),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=200, capacity=40, k=3, seed=1)  # selection-set branch (40 > 21)
@example(n=200, capacity=40, k=15, seed=1)  # pool branch (40 <= 85)
@example(n=200, capacity=40, k=40, seed=1)  # k >= stride: the row, no draws
@settings(max_examples=200, deadline=None)
def test_sample_row_draws_exactly_like_random_sample(n, capacity, k, seed):
    """``sample_row`` performs ``random.sample``'s own draws on the row:
    same pids in the same order as mapping ``rng.sample(range(stride), k)``
    through it, and the same RNG end-state — what keeps the per-group
    runtime streams (and every downstream digest) where they were."""
    tables = build_group_tables(T, 100, n, capacity, random.Random(seed))
    index = seed % n
    row = tables.row_pids(index)
    rng, reference = random.Random(seed + 1), random.Random(seed + 1)
    drawn = tables.sample_row(index, k, rng)
    if k >= len(row):
        assert drawn == row
    else:
        assert drawn == [row[r] for r in reference.sample(range(len(row)), k)]
    assert rng.getstate() == reference.getstate()


def _paper_shaped_pair(seed: int):
    obj = DaMulticastSystem(mode="static", seed=seed, p_success=0.9)
    col = ColumnarStaticSystem(seed=seed, p_success=0.9)
    for system in (obj, col):
        system.add_group(".t1", 100)
        system.add_group(".t1.t2", 500)
        system.finalize_static_membership()
    return obj, col


def test_golden_s500_digest_gate():
    """CI gate: the columnar backend's construction digest equals the
    object backend's on the S=500 golden, which still equals the pinned
    pre-columnar constant — so the columnar build is bit-identical to the
    membership every golden trajectory rests on."""
    obj, col = _paper_shaped_pair(seed=123)
    obj_digest = obj.construction_digest()
    assert obj_digest == GOLDEN_LARGE_TABLE_DIGEST
    assert col.construction_digest() == obj_digest


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None)
def test_system_digests_match_across_seeds(seed):
    obj, col = _paper_shaped_pair(seed)
    assert col.construction_digest() == obj.construction_digest()
