"""Unit tests for hierarchy builders."""

import pytest

from repro.errors import ConfigError
from repro.topics import ROOT, Topic, balanced_tree, chain, from_names


class TestChain:
    def test_chain_depth_zero_is_root_only(self):
        assert chain(0) == [ROOT]

    def test_chain_structure(self):
        topics = chain(3)
        assert len(topics) == 4
        for child, parent in zip(topics[1:], topics):
            assert child.super_topic == parent

    def test_chain_prefix(self):
        topics = chain(2, prefix="x")
        assert topics[1].name == ".x1"
        assert topics[2].name == ".x1.x2"

    def test_chain_negative_depth_raises(self):
        with pytest.raises(ConfigError):
            chain(-1)


class TestFromNames:
    def test_from_names(self):
        h = from_names([".a.b", ".c"])
        assert Topic.parse(".a") in h
        assert Topic.parse(".c") in h


class TestBalancedTree:
    def test_shape(self):
        h = balanced_tree(arity=2, depth=2)
        # root + 2 + 4 topics
        assert len(h.topics) == 7
        assert [t.name for t in h.topics if t.depth == 2] == [
            ".s0.s0", ".s0.s1", ".s1.s0", ".s1.s1"
        ]

    def test_depth_zero(self):
        h = balanced_tree(arity=3, depth=0)
        assert h.topics == [ROOT]

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            balanced_tree(0, 1)
        with pytest.raises(ConfigError):
            balanced_tree(2, -1)
