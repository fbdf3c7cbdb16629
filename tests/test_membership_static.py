"""Unit tests for static (paper-mode) membership: the table-size law, the
drawn rows and the supergroup rule."""

import math
import random

import pytest

from repro.core.params import TopicParams
from repro.errors import ConfigError
from repro.membership import (
    ColumnarSuperBuilder,
    ColumnarTableBuilder,
    ProcessDescriptor,
    build_group_tables,
)
from repro.membership.static import nearest_populated_super
from repro.topics import ROOT, Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


def group(topic, pids):
    return [ProcessDescriptor(pid, topic) for pid in pids]


class TestCapacity:
    def test_paper_value_base10(self):
        # S=1000, b=3, log10 -> (3+1)*3 = 12
        assert TopicParams(b=3, fanout_log_base=10).table_capacity(1000) == 12

    def test_paper_value_natural(self):
        expected = math.ceil(4 * math.log(1000))
        assert TopicParams(b=3).table_capacity(1000) == expected

    def test_singleton_group(self):
        assert TopicParams(b=3).table_capacity(1) == 1

    def test_small_group_at_least_one(self):
        assert TopicParams(b=0).table_capacity(2) >= 1

    def test_invalid_size(self):
        with pytest.raises(ConfigError):
            TopicParams(b=3).table_capacity(0)


class TestTopicRows:
    def test_excludes_self(self):
        tables = build_group_tables(T2, range(10), 5, random.Random(0))
        for index in range(10):
            assert index not in tables.row_pids(index)

    def test_capacity_respected(self):
        tables = build_group_tables(T2, range(50), 7, random.Random(0))
        assert len(tables.row_pids(0)) == tables.stride == 7

    def test_small_group_takes_everyone_else(self):
        tables = build_group_tables(T2, range(3), 10, random.Random(0))
        assert tables.row_pids(0) == [1, 2]
        assert tables.row_pids(1) == [0, 2]

    def test_group_of_one_has_an_empty_row(self):
        tables = build_group_tables(T2, [7], 1, random.Random(0))
        assert tables.stride == 0 and tables.row_pids(0) == []
        assert tables.sample_row(0, 3, random.Random(0)) == []

    def test_deterministic(self):
        first = build_group_tables(T2, range(30), 5, random.Random(3))
        second = ColumnarTableBuilder(list(range(30)), 5)
        second.draw_row(0, random.Random(3))
        assert first.row_pids(0) == second.rows.tolist()


class TestSuperRows:
    def test_size_z(self):
        builder = ColumnarSuperBuilder(range(100, 120), 3)
        builder.draw_row(random.Random(0))
        assert len(builder.rows) == builder.stride == 3

    def test_small_supergroup(self):
        builder = ColumnarSuperBuilder([100], 3)
        builder.draw_row(random.Random(0))
        assert builder.rows.tolist() == [100]

    def test_outsider_table_reads_its_drawers_rows(self):
        builder = ColumnarSuperBuilder(range(100, 120), 4)
        rng = random.Random(5)
        for _ in range(3):
            builder.draw_row(rng)
        tables = builder.tables(T1, [7, 8, 9])
        assert len(tables) == 3
        assert [tables.row_pids(i) for i in range(3)] == [
            builder.rows[4 * i : 4 * i + 4].tolist() for i in range(3)
        ]

    def test_empty_supergroup_rejected(self):
        with pytest.raises(ConfigError, match="supergroup size"):
            ColumnarSuperBuilder([], 3)


class TestNearestPopulatedSuper:
    def test_direct_super_populated(self):
        population = {T1: group(T1, [1]), T2: group(T2, [2])}
        assert nearest_populated_super(T2, population) == T1

    def test_skips_empty_super(self):
        population = {T1: [], ROOT: group(ROOT, [0]), T2: group(T2, [2])}
        assert nearest_populated_super(T2, population) == ROOT

    def test_unlisted_super_skipped(self):
        population = {ROOT: group(ROOT, [0]), T2: group(T2, [2])}
        assert nearest_populated_super(T2, population) == ROOT

    def test_no_populated_super(self):
        population = {T2: group(T2, [2])}
        assert nearest_populated_super(T2, population) is None

    def test_root_has_no_super(self):
        population = {ROOT: group(ROOT, [0])}
        assert nearest_populated_super(ROOT, population) is None
