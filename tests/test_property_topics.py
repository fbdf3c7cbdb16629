"""Property-based tests: the topic-inclusion algebra.

Inclusion is the relation the whole protocol is built on; these properties
must hold for *any* topics, not just the chains used in the figures.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.topics import ROOT, Topic

segment = st.text(
    alphabet=st.sampled_from("abcxyz012_-"), min_size=1, max_size=4
)
topic_strategy = st.builds(
    Topic, st.lists(segment, min_size=0, max_size=5).map(tuple)
)


@given(topic_strategy)
def test_includes_is_reflexive(topic):
    assert topic.includes(topic)


@given(topic_strategy, topic_strategy)
def test_includes_is_antisymmetric(a, b):
    if a.includes(b) and b.includes(a):
        assert a == b


@given(topic_strategy, topic_strategy, topic_strategy)
@settings(max_examples=200)
def test_includes_is_transitive(a, b, c):
    if a.includes(b) and b.includes(c):
        assert a.includes(c)


@given(topic_strategy)
def test_root_includes_everything(topic):
    assert ROOT.includes(topic)


@given(topic_strategy)
def test_super_topic_includes_strictly(topic):
    parent = topic.super_topic
    if parent is not None:
        assert parent.is_strict_supertopic_of(topic)
        assert not topic.includes(parent) or topic == parent


@given(topic_strategy)
def test_super_topic_is_the_validated_topic_of_the_prefix(topic):
    # super_topic builds the parent without re-validating segments that
    # were validated when ``topic`` was built: same value all the same
    parent = topic.super_topic
    if topic.is_root:
        assert parent is None
        return
    built = Topic.parse(topic.name.rsplit(".", 1)[0])
    assert parent == built
    assert hash(parent) == hash(built)
    assert parent.name == built.name
    assert type(parent) is Topic


@given(topic_strategy, topic_strategy)
def test_includes_equal_but_distinct_objects(a, b):
    # includes() answers identity first; equal copies must answer the same
    twin = Topic.parse(a.name)
    assert a.includes(b) == twin.includes(b)
    assert b.includes(a) == b.includes(twin)
    assert a.includes(twin) and twin.includes(a)


@given(topic_strategy)
def test_parse_roundtrip(topic):
    assert Topic.parse(topic.name) == topic


@given(topic_strategy)
def test_depth_equals_segments(topic):
    assert topic.depth == (0 if topic.is_root else topic.name.count("."))


@given(topic_strategy)
def test_ancestor_chain_is_monotone(topic):
    chain = list(topic.ancestors(include_self=True))
    assert chain[0] == topic
    assert chain[-1] == ROOT
    for deeper, shallower in zip(chain, chain[1:]):
        assert shallower.includes(deeper)
        assert shallower.depth == deeper.depth - 1


@given(st.lists(topic_strategy, min_size=1, max_size=8))
def test_sorting_is_stable_and_total(topics):
    ordered = sorted(topics)
    assert sorted(ordered) == ordered
    assert len(ordered) == len(topics)


@given(topic_strategy, segment)
def test_child_inverts_super(topic, name):
    child = topic.child(name)
    assert child.super_topic == topic
    assert topic.includes(child)
