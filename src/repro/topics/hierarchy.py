"""Explicit topic hierarchies: the tree of topics known to a system.

A :class:`TopicHierarchy` is the set of topics that exist in a deployment.
The paper assumes a rooted tree where each topic except the root has exactly
one direct supertopic (§VIII notes multiple inheritance as an extension —
implemented here in :class:`TopicDag`).

Registering ``.a.b.c`` implicitly registers ``.a.b``, ``.a`` and the root so
the hierarchy is always connected; the *depth* ``t`` of the hierarchy is the
maximum topic depth (the paper's §VI assumes a chain T0..Tt of depth t).
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import HierarchyError, UnknownTopic
from repro.topics.topic import ROOT, Topic


class TopicHierarchy:
    """A rooted tree of registered topics.

    >>> h = TopicHierarchy.from_topics([Topic.parse(".dsn04.reviewers")])
    >>> [t.name for t in h.topics]
    ['.', '.dsn04', '.dsn04.reviewers']
    """

    def __init__(self) -> None:
        self._topics: set[Topic] = {ROOT}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_topics(cls, topics: Iterable[Topic | str]) -> "TopicHierarchy":
        """Build a hierarchy containing ``topics`` and all their ancestors."""
        hierarchy = cls()
        for topic in topics:
            hierarchy.add(topic)
        return hierarchy

    def add(self, topic: Topic | str) -> Topic:
        """Register ``topic`` (and, implicitly, all its supertopics).

        Returns the registered :class:`Topic`. Adding an existing topic is a
        no-op, so callers need not deduplicate.
        """
        resolved = Topic.parse(topic) if isinstance(topic, str) else topic
        self._topics.update(resolved.ancestors(include_self=True))
        return resolved

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, topic: Topic) -> bool:
        return topic in self._topics

    @property
    def topics(self) -> list[Topic]:
        """All registered topics, sorted (root first)."""
        return sorted(self._topics)

    def require(self, topic: Topic) -> Topic:
        """Return ``topic`` if registered, else raise :class:`UnknownTopic`."""
        if topic not in self._topics:
            raise UnknownTopic(f"topic {topic.name} is not in the hierarchy")
        return topic


class TopicDag:
    """Multi-inheritance topic graph (paper §VIII extension).

    The paper's concluding remarks note that multiple direct supertopics
    could be supported "by adding a supertopic table for each supertopic".
    A :class:`TopicDag` assigns each topic an explicit set of parents; the
    implicit dotted-path parent is always included, and extra parents may be
    declared with :meth:`link`. The graph must remain acyclic and rooted.
    """

    def __init__(self) -> None:
        self._parents: dict[Topic, set[Topic]] = {ROOT: set()}

    def add(self, topic: Topic | str) -> Topic:
        """Register ``topic`` with its implicit dotted-path ancestry."""
        resolved = Topic.parse(topic) if isinstance(topic, str) else topic
        node = resolved
        while node not in self._parents:
            self._parents[node] = set()
            parent = node.super_topic
            if parent is None:
                break
            self._parents[node].add(parent)
            node = parent
        return resolved

    def link(self, topic: Topic, extra_parent: Topic) -> None:
        """Declare ``extra_parent`` as an additional direct supertopic.

        Raises :class:`HierarchyError` when the link would create a cycle or
        when either endpoint is unregistered.
        """
        if topic not in self._parents or extra_parent not in self._parents:
            raise UnknownTopic("both endpoints must be registered before linking")
        if topic == extra_parent or self.is_ancestor(topic, extra_parent):
            raise HierarchyError(
                f"linking {topic.name} under {extra_parent.name} creates a cycle"
            )
        self._parents[topic].add(extra_parent)

    def parents_of(self, topic: Topic) -> list[Topic]:
        """All direct supertopics of ``topic`` (implicit + linked), sorted."""
        if topic not in self._parents:
            raise UnknownTopic(f"topic {topic.name} is not in the DAG")
        return sorted(self._parents[topic])

    def is_ancestor(self, maybe_ancestor: Topic, topic: Topic) -> bool:
        """Whether ``maybe_ancestor`` is strictly reachable upward from ``topic``."""
        seen: set[Topic] = set()
        frontier = list(self._parents.get(topic, ()))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self._parents.get(node, ()))
        return maybe_ancestor in seen

    def __contains__(self, topic: Topic) -> bool:
        return topic in self._parents
