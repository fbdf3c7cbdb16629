"""The one static table builder against the historical draws.

Every static table in the tree is drawn by :mod:`repro.membership.columnar`
and must be *draw-for-draw* identical to the per-member bodies kept in
:mod:`repro.membership.static` as ``_reference_draw_topic_table`` /
``_reference_draw_super_table``: the same pids in the same order, **and**
the same RNG end-state (so everything drawn afterwards in a simulation is
unchanged — the property every golden trajectory rests on).

A group's pids are a block on the columnar host and need not be one on the
object host or in a baseline (interleaved ``add_process`` calls), so the
strategies draw both. They also straddle ``random.Random.sample``'s
internal pool-vs-selection-set branch point (population sizes from tiny to
several hundred, capacities from 1 to 64).

The last tests are the CI gate: on the S=500 construction golden, the one
shared digest equals the pinned constant on both hosts.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core.columnar import ColumnarStaticSystem
from repro.core.system import DaMulticastSystem
from repro.errors import ConfigError
from repro.membership import (
    ColumnarSuperBuilder,
    ColumnarTableBuilder,
    ProcessDescriptor,
    build_group_tables,
)
from repro.membership.static import (
    _reference_draw_super_table,
    _reference_draw_topic_table,
)
from repro.topics.topic import Topic
from tests.test_golden_static import GOLDEN_LARGE_TABLE_DIGEST

T = Topic.parse(".eq")
SUPER = Topic.parse(".")


def member_pids(base: int, n: int, step: int) -> range:
    # step 1 is a pid block (the columnar host), a larger step a group
    # whose pids interleave with other groups' (the object host, the
    # baselines); nonzero bases keep index and pid spaces distinct
    return range(base, base + step * n, step)


def descriptors(pids, topic=T) -> list[ProcessDescriptor]:
    return [ProcessDescriptor(pid, topic) for pid in pids]


def row(builder, index: int) -> list[int]:
    start = index * builder.stride
    return builder.rows[start : start + builder.stride].tolist()


steps = st.sampled_from([1, 3])
bases = st.integers(min_value=0, max_value=10**6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(
    base=bases,
    n=st.integers(min_value=1, max_value=400),
    step=steps,
    capacity=st.integers(min_value=1, max_value=64),
    seed=seeds,
)
@settings(max_examples=150, deadline=None)
def test_topic_rows_match_reference(base, n, step, capacity, seed):
    pids = member_pids(base, n, step)
    group = descriptors(pids)
    ref_rng, col_rng = random.Random(seed), random.Random(seed)
    builder = ColumnarTableBuilder(list(pids), capacity)
    for index, member in enumerate(group):
        reference = _reference_draw_topic_table(member, group, capacity, ref_rng)
        builder.draw_row(index, col_rng)
        assert row(builder, index) == reference.pids
    assert col_rng.getstate() == ref_rng.getstate()


@given(
    base=bases,
    n=st.integers(min_value=1, max_value=400),
    step=steps,
    z=st.integers(min_value=1, max_value=64),
    members=st.integers(min_value=1, max_value=20),
    seed=seeds,
)
@settings(max_examples=150, deadline=None)
def test_super_rows_match_reference(base, n, step, z, members, seed):
    """Repeated ``z``-draws from one supergroup match the historical
    copy-the-population-per-member code, draw for draw."""
    super_pids = member_pids(base, n, step)
    super_group = descriptors(super_pids, SUPER)
    ref_rng, col_rng = random.Random(seed), random.Random(seed)
    builder = ColumnarSuperBuilder(super_pids, z)
    for index in range(members):
        reference = _reference_draw_super_table(super_group, z, ref_rng)
        builder.draw_row(col_rng)
        assert row(builder, index) == reference.pids
    assert col_rng.getstate() == ref_rng.getstate()


@given(
    base=bases,
    n=st.integers(min_value=1, max_value=200),
    step=steps,
    capacity=st.integers(min_value=1, max_value=48),
    drawers=st.integers(min_value=1, max_value=12),
    k=st.integers(min_value=1, max_value=20),
    seed=seeds,
)
@settings(max_examples=100, deadline=None)
def test_outsider_rows_match_reference(base, n, step, capacity, drawers, k, seed):
    """An outsider table — one row per drawer, none of them in the group
    (the naive publisher's supergroup tables, the hierarchical cross
    table) — holds what the historical topic-table draw held for a member
    whose pid is not in the group, and is read as that table was."""
    pids = member_pids(base, n, step)
    group = descriptors(pids)
    outsiders = [ProcessDescriptor(10**9 + i, T) for i in range(drawers)]
    ref_rng, col_rng = random.Random(seed), random.Random(seed)
    builder = ColumnarSuperBuilder(pids, capacity)
    references = []
    for drawer in outsiders:
        references.append(
            _reference_draw_topic_table(drawer, group, capacity, ref_rng)
        )
        builder.draw_row(col_rng)
    assert col_rng.getstate() == ref_rng.getstate()
    tables = builder.tables(T, [d.pid for d in outsiders])
    for index, (drawer, reference) in enumerate(zip(outsiders, references)):
        assert tables.row_pids(index) == reference.pids
        # the forward: what the baselines sampled off the view, as pids
        # (naive) or as descriptors (the hierarchical cross table)
        row_rng, pid_rng, descriptor_rng = (
            random.Random(seed + index) for _ in range(3)
        )
        drawn = tables.sample_row(index, k, row_rng)
        assert drawn == reference.sample_pids(k, pid_rng, drawer.pid)
        assert drawn == [
            d.pid for d in reference.sample(k, descriptor_rng, (drawer.pid,))
        ]
        assert row_rng.getstate() == pid_rng.getstate() == descriptor_rng.getstate()


@given(
    base=bases,
    n=st.integers(min_value=1, max_value=200),
    step=steps,
    capacity=st.integers(min_value=1, max_value=48),
    k=st.integers(min_value=1, max_value=20),
    seed=seeds,
)
@settings(max_examples=100, deadline=None)
def test_topic_rows_sample_like_the_reference_view(base, n, step, capacity, k, seed):
    """A baseline's forward off its row draws what ``PartialView.
    sample_pids`` drew off the descriptor table holding that row."""
    pids = member_pids(base, n, step)
    group = descriptors(pids)
    ref_rng, col_rng = random.Random(seed), random.Random(seed)
    references = [
        _reference_draw_topic_table(member, group, capacity, ref_rng)
        for member in group
    ]
    tables = build_group_tables(T, pids, capacity, col_rng)
    assert col_rng.getstate() == ref_rng.getstate()
    for index, member in enumerate(group):
        drawn = tables.sample_row(index, k, col_rng)
        assert drawn == references[index].sample_pids(k, ref_rng, member.pid)
    assert col_rng.getstate() == ref_rng.getstate()


@given(
    base=st.integers(min_value=0, max_value=10**4),
    n=st.integers(min_value=1, max_value=200),
    step=steps,
    capacity=st.integers(min_value=1, max_value=48),
    super_n=st.integers(min_value=1, max_value=200),
    z=st.integers(min_value=1, max_value=8),
    seed=seeds,
)
@settings(max_examples=100, deadline=None)
def test_build_group_tables_interleaving_matches_reference(
    base, n, step, capacity, super_n, z, seed
):
    """The whole-group build interleaves topic and super draws per member
    exactly as the historical per-member build did over one stream."""
    pids = member_pids(base, n, step)
    super_pids = member_pids(base + step * n, super_n, step)
    group = descriptors(pids)
    super_group = descriptors(super_pids, SUPER)
    ref_rng = random.Random(seed)
    ref_rows, ref_super_rows = [], []
    for member in group:
        ref_rows.append(
            _reference_draw_topic_table(member, group, capacity, ref_rng).pids
        )
        ref_super_rows.append(_reference_draw_super_table(super_group, z, ref_rng).pids)

    col_rng = random.Random(seed)
    tables = build_group_tables(
        T,
        pids,
        capacity,
        col_rng,
        super_topic=SUPER,
        super_members=super_pids,
        z=z,
    )
    for index in range(n):
        assert tables.row_pids(index) == ref_rows[index]
        assert tables.super_row_pids(index) == ref_super_rows[index]
    assert col_rng.getstate() == ref_rng.getstate()


def test_duplicate_pids_are_a_config_error():
    """No group of registered processes lists a pid twice, and positional
    exclusion would keep the second copy where the historical pid
    exclusion dropped both: the builder refuses."""
    with pytest.raises(ConfigError, match="more than once"):
        ColumnarTableBuilder([4, 7, 4], 2)
    with pytest.raises(ConfigError, match="more than once"):
        build_group_tables(T, [4, 7, 4], 2, random.Random(0))


@given(
    n=st.integers(min_value=2, max_value=300),
    capacity=st.integers(min_value=1, max_value=32),
    k=st.integers(min_value=1, max_value=32),
    seed=seeds,
)
@settings(max_examples=100, deadline=None)
def test_sample_row_is_uniform_over_the_row(n, capacity, k, seed):
    """Index-based row sampling returns distinct in-row pids and never the
    member's own pid (exclusion is built into construction)."""
    rng = random.Random(seed)
    tables = build_group_tables(T, range(100, 100 + n), capacity, rng)
    index = seed % n
    drawn = tables.sample_row(index, k, rng)
    row_pids = tables.row_pids(index)
    assert len(drawn) == min(k, len(row_pids))
    assert len(set(drawn)) == len(drawn)
    assert set(drawn) <= set(row_pids)
    assert (100 + index) not in drawn


@given(
    n=st.integers(min_value=2, max_value=300),
    capacity=st.integers(min_value=1, max_value=64),
    k=st.integers(min_value=1, max_value=70),
    seed=seeds,
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
    tables = build_group_tables(
        T, range(100, 100 + n), capacity, random.Random(seed)
    )
    index = seed % n
    row_pids = tables.row_pids(index)
    rng, reference = random.Random(seed + 1), random.Random(seed + 1)
    drawn = tables.sample_row(index, k, rng)
    if k >= len(row_pids):
        assert drawn == row_pids
    else:
        assert drawn == [row_pids[r] for r in reference.sample(range(len(row_pids)), k)]
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
    """CI gate: both backends' construction digests equal the pinned
    pre-columnar constant of the S=500 golden — so the one build both
    draw with is bit-identical to the membership every golden trajectory
    rests on."""
    obj, col = _paper_shaped_pair(seed=123)
    assert obj.construction_digest() == GOLDEN_LARGE_TABLE_DIGEST
    assert col.construction_digest() == GOLDEN_LARGE_TABLE_DIGEST


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None)
def test_system_digests_match_across_seeds(seed):
    obj, col = _paper_shaped_pair(seed)
    assert col.construction_digest() == obj.construction_digest()
