"""Unit tests for TopicHierarchy, its links (§VIII) included."""

import pytest

from repro.errors import HierarchyError, UnknownTopic
from repro.topics import ROOT, Topic, TopicHierarchy


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


class TestLinks:
    """§VIII: ``link`` gives a topic extra direct supertopics."""

    def test_tree_parents_are_the_dotted_ones(self):
        h = TopicHierarchy.from_topics([".a.b"])
        assert h.parents_of(topic(".a.b")) == [topic(".a")]
        assert h.parents_of(topic(".a")) == [ROOT]
        assert h.parents_of(ROOT) == []

    def test_link_adds_second_parent(self):
        h = TopicHierarchy.from_topics([".sports.football", ".news"])
        h.link(topic(".sports.football"), topic(".news"))
        assert h.parents_of(topic(".sports.football")) == [
            topic(".news"),
            topic(".sports"),
        ]

    def test_link_accepts_names_and_is_idempotent(self):
        h = TopicHierarchy.from_topics([".sports.football", ".news"])
        h.link(".sports.football", ".news")
        h.link(topic(".sports.football"), topic(".news"))
        assert h.parents_of(topic(".sports.football")) == [
            topic(".news"),
            topic(".sports"),
        ]

    def test_link_unknown_raises(self):
        h = TopicHierarchy.from_topics([".a"])
        with pytest.raises(UnknownTopic):
            h.link(topic(".a"), topic(".missing"))
        with pytest.raises(UnknownTopic):
            h.link(topic(".missing"), topic(".a"))

    def test_link_rejects_cycle(self):
        h = TopicHierarchy.from_topics([".a.b"])
        with pytest.raises(HierarchyError):
            h.link(topic(".a"), topic(".a.b"))  # child above parent

    def test_link_rejects_cycle_through_links(self):
        h = TopicHierarchy.from_topics([".a", ".b", ".c"])
        h.link(topic(".a"), topic(".b"))
        h.link(topic(".b"), topic(".c"))
        with pytest.raises(HierarchyError):
            h.link(topic(".c"), topic(".a"))

    def test_link_rejects_self(self):
        h = TopicHierarchy.from_topics([".a"])
        with pytest.raises(HierarchyError):
            h.link(topic(".a"), topic(".a"))

    def test_inclusion_on_a_tree_is_the_dotted_test(self):
        h = TopicHierarchy.from_topics([".a.b"])
        assert h.includes is Topic.includes
        assert h.includes(topic(".a"), topic(".a.b"))
        assert h.includes(ROOT, topic(".a.b"))
        assert h.includes(topic(".a.b"), topic(".a.b"))
        assert not h.includes(topic(".a.b"), topic(".a"))

    def test_inclusion_follows_linked_parents(self):
        h = TopicHierarchy.from_topics([".sports.football", ".news.local"])
        h.link(topic(".sports.football"), topic(".news.local"))
        football = topic(".sports.football")
        assert h.includes(topic(".news.local"), football)
        assert h.includes(topic(".news"), football)  # above the linked parent
        assert h.includes(topic(".sports"), football)
        assert h.includes(football, football)
        assert not h.includes(football, topic(".news.local"))
        assert not h.includes(topic(".sports"), topic(".news.local"))

    def test_inclusion_follows_a_link_of_an_ancestor(self):
        h = TopicHierarchy.from_topics([".a.b.c", ".x"])
        h.link(topic(".a"), topic(".x"))
        assert h.includes(topic(".x"), topic(".a.b.c"))
        assert not h.includes(topic(".x"), topic(".y"))

    def test_nearest_populated_supers_one_per_parent(self):
        h = TopicHierarchy.from_topics([".sports.football", ".news"])
        h.link(topic(".sports.football"), topic(".news"))
        population = {ROOT: [0], topic(".news"): [1], topic(".sports.football"): [2]}
        # .sports is empty, so its table climbs breadth-first to the root
        assert h.nearest_populated_supers(topic(".sports.football"), population) == [
            topic(".news"),
            ROOT,
        ]

    def test_unknown_queries_raise(self):
        h = TopicHierarchy()
        with pytest.raises(UnknownTopic):
            h.parents_of(topic(".missing"))
