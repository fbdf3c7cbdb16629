"""Explicit topic hierarchies: the graph of topics known to a system.

A :class:`TopicHierarchy` is the set of topics that exist in a deployment.
The paper assumes a rooted tree where each topic except the root has exactly
one direct supertopic, its dotted parent. §VIII notes that multiple
supertopics "could be easily supported ... by adding a supertopic table for
each supertopic": :meth:`TopicHierarchy.link` declares such an extra direct
supertopic, which turns the tree into a rooted DAG. The static build draws
one supertopic table per direct supertopic (:meth:`TopicHierarchy.
parents_of`), and inclusion follows the DAG (:attr:`TopicHierarchy.includes`).

Registering ``.a.b.c`` implicitly registers ``.a.b``, ``.a`` and the root so
the hierarchy is always connected; the *depth* ``t`` of the hierarchy is the
maximum topic depth (the paper's §VI assumes a chain T0..Tt of depth t).
"""

from __future__ import annotations

import functools
from typing import Iterable, Mapping, Sized

from repro.errors import HierarchyError, UnknownTopic
from repro.topics.topic import ROOT, Topic


class TopicHierarchy:
    """A rooted graph of registered topics: the dotted tree, plus any
    extra direct supertopics declared with :meth:`link`.

    >>> h = TopicHierarchy.from_topics([Topic.parse(".dsn04.reviewers")])
    >>> [t.name for t in h.topics]
    ['.', '.dsn04', '.dsn04.reviewers']
    """

    def __init__(self) -> None:
        self._topics: set[Topic] = {ROOT}
        #: topic -> its linked direct supertopics (the dotted one excluded)
        self._links: dict[Topic, list[Topic]] = {}
        #: ``includes(ancestor, topic)``: whether subscribers of
        #: ``ancestor`` receive events of ``topic``. On a tree it *is*
        #: :meth:`Topic.includes` — the dotted test, one frame, as on every
        #: delivery and publish before links existed; the first link swaps
        #: in :func:`_linked_includes` over this hierarchy's links (not a
        #: bound method, which would tie the hierarchy into a cycle), which
        #: walks the links only when the dotted test fails.
        self.includes = Topic.includes

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

    def link(self, topic: Topic | str, extra_parent: Topic | str) -> None:
        """Declare ``extra_parent`` an additional direct supertopic of
        ``topic`` (§VIII, multiple inheritance).

        Raises :class:`UnknownTopic` when either endpoint is unregistered
        and :class:`HierarchyError` when the link would make a cycle. A
        system links through :meth:`ObjectSystemFacade.link
        <repro.runtime.ObjectSystemFacade.link>`, which refuses a link its
        build cannot honour.
        """
        child = self.require(Topic.parse(topic) if isinstance(topic, str) else topic)
        parent = self.require(
            Topic.parse(extra_parent) if isinstance(extra_parent, str) else extra_parent
        )
        if self.includes(child, parent):
            raise HierarchyError(
                f"linking {child.name} under {parent.name} creates a cycle"
            )
        linked = self._links.setdefault(child, [])
        if parent not in linked:
            linked.append(parent)
        self.includes = functools.partial(_linked_includes, self._links)

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

    def parents_of(self, topic: Topic) -> list[Topic]:
        """All direct supertopics of ``topic`` — the dotted parent plus any
        linked ones — sorted; the root has none."""
        self.require(topic)
        parents = list(self._links.get(topic, ()))
        if not topic.is_root:
            parents.append(topic.super_topic)
        return sorted(parents)

    def nearest_populated_supers(
        self, topic: Topic, population: Mapping[Topic, Sized]
    ) -> list[Topic]:
        """Where ``topic``'s supertopic tables point: for each direct
        supertopic, in :meth:`parents_of` order, the nearest topic with
        members at or above it, searched breadth-first over parents.

        §III-B's ``sTable`` target — the direct supertopic if populated,
        otherwise "the next immediate supertopic ... that induces Ti" —
        once per direct supertopic (§VIII); a parent with no populated
        topic above it gets no table. On a tree: the first populated
        ancestor, or nothing.
        """
        targets = []
        for parent in self.parents_of(topic):
            seen = {parent}
            frontier = [parent]
            while frontier:
                found = next((node for node in frontier if population.get(node)), None)
                if found is not None:
                    targets.append(found)
                    break
                next_frontier = []
                for node in frontier:
                    for up in self.parents_of(node):
                        if up not in seen:
                            seen.add(up)
                            next_frontier.append(up)
                frontier = next_frontier
        return targets


def _linked_includes(
    links: Mapping[Topic, list[Topic]], ancestor: Topic, topic: Topic
) -> bool:
    """:attr:`TopicHierarchy.includes` once a link exists: the dotted
    test, then a walk up through every linked supertopic (``links``) of
    ``topic`` and of its dotted ancestors."""
    if ancestor.includes(topic):
        return True
    seen = {topic}
    stack = [topic]
    while stack:
        for node in stack.pop().ancestors(include_self=True):
            for parent in links.get(node, ()):
                if ancestor.includes(parent):
                    return True
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
    return False
