"""Tests for the §VI-E closed-form comparison tables."""

import math

import pytest

from repro.analysis.comparison import ChainScenario, comparison_table
from repro.errors import ConfigError


class TestChainScenario:
    def test_defaults_are_paper_values(self):
        scenario = ChainScenario()
        assert tuple(scenario.sizes) == (1000, 100, 10)
        assert scenario.n == 1110
        assert scenario.t == 3
        assert scenario.cluster_size == 111

    def test_empty_sizes_rejected(self):
        with pytest.raises(ConfigError):
            ChainScenario(sizes=())

    def test_cluster_size_at_least_one(self):
        scenario = ChainScenario(sizes=(3,), n_clusters=10)
        assert scenario.cluster_size == 1


class TestComparisonTable:
    def test_three_tables_produced(self):
        tables = comparison_table()
        assert set(tables) == {"messages", "memory", "reliability"}

    def test_all_algorithms_present(self):
        tables = comparison_table()
        for table in tables.values():
            algorithms = [row["algorithm"] for row in table.as_dicts()]
            assert any("daMulticast" in a for a in algorithms)
            assert any("(a)" in a for a in algorithms)
            assert any("(b)" in a for a in algorithms)
            assert any("(c)" in a for a in algorithms)

    def test_message_complexity_rows(self):
        tables = comparison_table()
        rows = {
            row["algorithm"]: row for row in tables["messages"].as_dicts()
        }
        assert (
            rows["gossip broadcast (a)"]["messages"]
            > rows["gossip multicast (b)"]["messages"]
        )
        # daMulticast pays only the inter-group hand-offs over (b).
        delta = (
            rows["daMulticast"]["messages"]
            - rows["gossip multicast (b)"]["messages"]
        )
        assert 0 < delta <= 2 * 5  # 2 edges * g*a

    def test_memory_ordering(self):
        tables = comparison_table()
        rows = {row["algorithm"]: row for row in tables["memory"].as_dicts()}
        assert rows["daMulticast"]["tables"] == 2
        assert rows["gossip multicast (b)"]["tables"] == 3
        assert (
            rows["daMulticast"]["memory"]
            < rows["gossip multicast (b)"]["memory"]
        )

    def test_reliability_rows_are_probabilities(self):
        tables = comparison_table()
        for row in tables["reliability"].as_dicts():
            assert 0.0 <= row["reliability"] <= 1.0

    def test_perfect_channels_match_multicast(self):
        tables = comparison_table(ChainScenario(p_succ=1.0))
        rows = {
            row["algorithm"]: row["reliability"]
            for row in tables["reliability"].as_dicts()
        }
        assert rows["daMulticast (hop-exact eq. 1)"] == pytest.approx(
            rows["gossip multicast (b)"]
        )

    def test_log_base_propagates(self):
        natural = comparison_table(ChainScenario(log_base=math.e))
        base10 = comparison_table(ChainScenario(log_base=10.0))
        natural_messages = natural["messages"].as_dicts()[0]["messages"]
        base10_messages = base10["messages"].as_dicts()[0]["messages"]
        assert base10_messages < natural_messages  # log10 < ln
