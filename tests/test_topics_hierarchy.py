"""Unit tests for TopicHierarchy and the TopicDag extension."""

import pytest

from repro.errors import HierarchyError, UnknownTopic
from repro.topics import ROOT, Topic, TopicDag, TopicHierarchy


def topic(name: str) -> Topic:
    return Topic.parse(name)


class TestTopicHierarchy:
    def test_empty_hierarchy_contains_root(self):
        h = TopicHierarchy()
        assert ROOT in h
        assert h.topics == [ROOT]

    def test_add_registers_ancestors(self):
        h = TopicHierarchy()
        h.add(".a.b.c")
        assert topic(".a") in h
        assert topic(".a.b") in h
        assert topic(".a.b.c") in h
        assert len(h.topics) == 4  # root + 3

    def test_add_is_idempotent(self):
        h = TopicHierarchy()
        h.add(".a.b")
        h.add(".a.b")
        assert len(h.topics) == 3

    def test_add_accepts_topic_objects(self):
        h = TopicHierarchy()
        returned = h.add(topic(".x"))
        assert returned == topic(".x")

    def test_from_topics(self):
        h = TopicHierarchy.from_topics([".a.x", ".a.y", topic(".b")])
        assert len(h.topics) == 5  # root, .a, .a.x, .a.y, .b

    def test_topics_sorted_root_first(self):
        h = TopicHierarchy.from_topics([".b", ".a.x"])
        assert h.topics == [ROOT, topic(".a"), topic(".a.x"), topic(".b")]

    def test_require(self):
        h = TopicHierarchy.from_topics([".a"])
        assert h.require(topic(".a")) is topic(".a")
        with pytest.raises(UnknownTopic):
            h.require(topic(".missing"))


class TestTopicDag:
    def test_add_builds_implicit_chain(self):
        dag = TopicDag()
        dag.add(".a.b")
        assert dag.parents_of(topic(".a.b")) == [topic(".a")]
        assert dag.parents_of(topic(".a")) == [ROOT]

    def test_link_adds_second_parent(self):
        dag = TopicDag()
        dag.add(".sports.football")
        dag.add(".news")
        dag.link(topic(".sports.football"), topic(".news"))
        assert dag.parents_of(topic(".sports.football")) == [
            topic(".news"),
            topic(".sports"),
        ]

    def test_link_unknown_raises(self):
        dag = TopicDag()
        dag.add(".a")
        with pytest.raises(UnknownTopic):
            dag.link(topic(".a"), topic(".missing"))

    def test_link_rejects_cycle(self):
        dag = TopicDag()
        dag.add(".a.b")
        with pytest.raises(HierarchyError):
            dag.link(topic(".a"), topic(".a.b"))  # child above parent

    def test_link_rejects_self(self):
        dag = TopicDag()
        dag.add(".a")
        with pytest.raises(HierarchyError):
            dag.link(topic(".a"), topic(".a"))

    def test_is_ancestor_strict(self):
        dag = TopicDag()
        dag.add(".a.b")
        assert dag.is_ancestor(topic(".a"), topic(".a.b"))
        assert dag.is_ancestor(ROOT, topic(".a.b"))
        assert not dag.is_ancestor(topic(".a.b"), topic(".a.b"))
        assert not dag.is_ancestor(topic(".a.b"), topic(".a"))

    def test_is_ancestor_follows_linked_parents(self):
        dag = TopicDag()
        dag.add(".sports.football")
        dag.add(".news")
        dag.link(topic(".sports.football"), topic(".news"))
        assert dag.is_ancestor(topic(".news"), topic(".sports.football"))
        assert dag.is_ancestor(topic(".sports"), topic(".sports.football"))

    def test_unknown_queries_raise(self):
        dag = TopicDag()
        with pytest.raises(UnknownTopic):
            dag.parents_of(topic(".missing"))
