"""Unit tests for the Topic value object."""

import pytest

from repro.errors import InvalidTopicName
from repro.topics import ROOT, Topic


class TestParsing:
    def test_parse_simple(self):
        topic = Topic.parse(".dsn04.reviewers")
        assert topic is Topic(("dsn04", "reviewers"))
        assert topic.name == ".dsn04.reviewers"

    def test_parse_without_leading_dot(self):
        assert Topic.parse("dsn04.reviewers") == Topic.parse(".dsn04.reviewers")

    def test_parse_root_forms(self):
        assert Topic.parse(".") is ROOT or Topic.parse(".") == ROOT
        assert Topic.parse("") == ROOT
        assert Topic.parse("  .  ".strip()) == ROOT

    def test_parse_rejects_trailing_dot(self):
        with pytest.raises(InvalidTopicName):
            Topic.parse(".a.b.")

    def test_parse_rejects_double_dot(self):
        with pytest.raises(InvalidTopicName):
            Topic.parse(".a..b")

    def test_parse_rejects_bad_characters(self):
        with pytest.raises(InvalidTopicName):
            Topic.parse(".a.b c")
        with pytest.raises(InvalidTopicName):
            Topic.parse(".a.b!c")

    def test_parse_rejects_non_string(self):
        with pytest.raises(InvalidTopicName):
            Topic.parse(42)  # type: ignore[arg-type]

    def test_constructor_validates_segments(self):
        with pytest.raises(InvalidTopicName):
            Topic(("ok", "not ok"))

    def test_allowed_characters(self):
        topic = Topic.parse(".A-1_b.c2")
        assert topic.depth == 2


class TestNavigation:
    def test_super_topic(self):
        topic = Topic.parse(".dsn04.reviewers")
        assert topic.super_topic == Topic.parse(".dsn04")
        assert Topic.parse(".dsn04").super_topic == ROOT
        assert ROOT.super_topic is None

    def test_child(self):
        assert ROOT.child("a").child("b") == Topic.parse(".a.b")

    def test_depth(self):
        assert ROOT.depth == 0
        assert Topic.parse(".a").depth == 1
        assert Topic.parse(".a.b.c").depth == 3

    def test_is_root(self):
        assert ROOT.is_root
        assert not Topic.parse(".a").is_root

    def test_ancestors_exclude_self(self):
        topic = Topic.parse(".a.b.c")
        assert list(topic.ancestors()) == [
            Topic.parse(".a.b"),
            Topic.parse(".a"),
            ROOT,
        ]

    def test_ancestors_include_self(self):
        topic = Topic.parse(".a.b")
        assert list(topic.ancestors(include_self=True))[0] == topic

    def test_root_has_no_ancestors(self):
        assert list(ROOT.ancestors()) == []
        assert list(ROOT.ancestors(include_self=True)) == [ROOT]


class TestInclusion:
    def test_includes_is_reflexive(self):
        topic = Topic.parse(".a.b")
        assert topic.includes(topic)

    def test_supertopic_includes_subtopic(self):
        assert Topic.parse(".a").includes(Topic.parse(".a.b.c"))
        assert ROOT.includes(Topic.parse(".x.y"))

    def test_subtopic_does_not_include_supertopic(self):
        assert not Topic.parse(".a.b").includes(Topic.parse(".a"))

    def test_siblings_do_not_include_each_other(self):
        assert not Topic.parse(".a.x").includes(Topic.parse(".a.y"))
        assert not Topic.parse(".a.y").includes(Topic.parse(".a.x"))

    def test_prefix_segment_names_are_not_inclusion(self):
        # .ab is not a supertopic of .abc — segment-wise, not string-wise.
        assert not Topic.parse(".ab").includes(Topic.parse(".abc"))

    def test_strict_supertopic(self):
        a = Topic.parse(".a")
        assert a.is_strict_supertopic_of(Topic.parse(".a.b"))
        assert not a.is_strict_supertopic_of(a)


class TestValueSemantics:
    def test_equality_and_hash(self):
        a1 = Topic.parse(".a.b")
        a2 = Topic(("a", "b"))
        assert a1 == a2
        assert hash(a1) == hash(a2)
        assert len({a1, a2}) == 1

    def test_inequality_with_other_types(self):
        assert Topic.parse(".a") != ".a"

    def test_ordering_is_lexicographic_on_segments(self):
        topics = [Topic.parse(".b"), Topic.parse(".a.z"), Topic.parse(".a"), ROOT]
        assert sorted(topics) == [
            ROOT,
            Topic.parse(".a"),
            Topic.parse(".a.z"),
            Topic.parse(".b"),
        ]

    def test_str_is_the_name(self):
        # rows_digest (the pinned construction goldens) formats topics with str()
        assert str(Topic.parse(".a.b")) == ".a.b"
        assert str(ROOT) == "."
