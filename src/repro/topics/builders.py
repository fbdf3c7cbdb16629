"""Convenience constructors for topic hierarchies.

These cover the shapes used throughout the evaluation: chains for the
paper's three-level scenario (§VII) and the complexity analysis (§VI
assumes a chain ``T0..Tt``), hierarchies from dotted names, and balanced
trees for the baseline comparisons.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ConfigError
from repro.topics.hierarchy import TopicHierarchy
from repro.topics.topic import ROOT, Topic


def chain(depth: int, prefix: str = "level") -> list[Topic]:
    """A chain ``T0 (root), T1, ..., T<depth>`` as used by the analysis (§VI).

    Returns the topics ordered root-first. ``depth=0`` yields just the root.

    >>> [t.name for t in chain(2)]
    ['.', '.level1', '.level1.level2']
    """
    if depth < 0:
        raise ConfigError(f"chain depth must be >= 0, got {depth}")
    topics = [ROOT]
    for level in range(1, depth + 1):
        topics.append(topics[-1].child(f"{prefix}{level}"))
    return topics


def from_names(names: Iterable[str]) -> TopicHierarchy:
    """Build a hierarchy from dotted names (ancestors added implicitly)."""
    return TopicHierarchy.from_topics(Topic.parse(name) for name in names)


def balanced_tree(arity: int, depth: int) -> TopicHierarchy:
    """A complete ``arity``-ary topic tree of the given ``depth``.

    Useful for exercising hierarchies where a supertopic has several
    subtopics (the paper's figures only need a chain, but the protocol and
    baseline (b) are sensitive to branching).
    """
    if arity < 1:
        raise ConfigError(f"arity must be >= 1, got {arity}")
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    hierarchy = TopicHierarchy()
    frontier: list[Topic] = [ROOT]
    for _ in range(depth):
        next_frontier: list[Topic] = []
        for node in frontier:
            for index in range(arity):
                child = node.child(f"s{index}")
                hierarchy.add(child)
                next_frontier.append(child)
        frontier = next_frontier
    return hierarchy
