"""Immutable topic names with super/sub-topic navigation.

A topic is a dotted path rooted at ``.`` (the root topic): ``.dsn04`` is the
direct supertopic of ``.dsn04.reviewers``. Following the paper (§III-A):

* ``super(Ti)`` is the direct supertopic; only the root has none.
* ``Ta`` *includes* ``Tb`` when ``Ta`` is a supertopic (direct or not) of
  ``Tb``. :meth:`Topic.includes` is the reflexive closure (a topic includes
  itself) because an event of topic ``Ti`` *is* an event of topic ``Ti``;
  use :meth:`Topic.is_strict_supertopic_of` for the strict relation.
"""

from __future__ import annotations

import re
from functools import total_ordering
from typing import Iterator, Sequence

from repro.errors import InvalidTopicName

_SEGMENT_RE = re.compile(r"^[A-Za-z0-9_\-]+$")


@total_ordering
class Topic:
    """An immutable, hashable topic name.

    Instances are value objects: two topics with the same path are equal and
    interchangeable. Construction validates every path segment against
    ``[A-Za-z0-9_-]+``.

    >>> reviewers = Topic.parse(".dsn04.reviewers")
    >>> reviewers.super_topic
    Topic('.dsn04')
    >>> Topic.parse(".dsn04").includes(reviewers)
    True
    """

    __slots__ = ("_segments", "_name", "_hash")

    def __init__(self, segments: Sequence[str] = ()):
        checked = tuple(segments)
        for segment in checked:
            if not _SEGMENT_RE.match(segment):
                raise InvalidTopicName(
                    f"invalid topic segment {segment!r}: segments must match "
                    f"[A-Za-z0-9_-]+"
                )
        self._set(checked)

    def _set(self, checked: tuple[str, ...]) -> None:
        """Fill the slots from segments that are already validated."""
        self._segments = checked
        self._name = "." + ".".join(checked) if checked else "."
        # repro-lint: allow[DET003]: cached tuple hash for dict/set keying only; it never crosses a process or digest boundary
        self._hash = hash(checked)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, name: str) -> "Topic":
        """Parse a dotted topic name such as ``.dsn04.reviewers``.

        The leading dot is optional; ``"."`` and ``""`` both denote the
        root topic.
        """
        if not isinstance(name, str):
            raise InvalidTopicName(f"topic name must be a string, got {type(name)!r}")
        stripped = name.strip()
        if stripped.startswith("."):
            stripped = stripped[1:]
        if not stripped:
            return ROOT
        if stripped.endswith(".") or ".." in stripped:
            raise InvalidTopicName(f"malformed topic name {name!r}")
        return cls(stripped.split("."))

    def child(self, segment: str) -> "Topic":
        """Return the direct subtopic obtained by appending ``segment``."""
        return Topic(self._segments + (segment,))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The canonical dotted name (always starts with ``.``)."""
        return self._name

    @property
    def segments(self) -> tuple[str, ...]:
        """The path segments, root first (empty tuple for the root)."""
        return self._segments

    @property
    def depth(self) -> int:
        """Distance from the root topic (root has depth 0)."""
        return len(self._segments)

    @property
    def is_root(self) -> bool:
        """Whether this is the root topic ``.``."""
        return not self._segments

    @property
    def leaf_segment(self) -> str:
        """The last path segment (raises on the root topic)."""
        if self.is_root:
            raise InvalidTopicName("the root topic has no leaf segment")
        return self._segments[-1]

    # ------------------------------------------------------------------
    # Hierarchy navigation
    # ------------------------------------------------------------------
    @property
    def super_topic(self) -> "Topic | None":
        """The direct supertopic ``super(Ti)``, or ``None`` for the root."""
        if not self._segments:
            return None
        # our own segments were validated when we were built: no second
        # regex pass per step of every ancestors() walk
        parent = Topic.__new__(Topic)
        parent._set(self._segments[:-1])
        return parent

    def ancestors(self, include_self: bool = False) -> Iterator["Topic"]:
        """Yield supertopics from the direct one up to (and including) root.

        With ``include_self=True`` the topic itself is yielded first, which
        matches the paper's reading that an event of ``Ti`` is relevant to
        every topic that includes ``Ti`` — including ``Ti`` itself.
        """
        if include_self:
            yield self
        topic = self.super_topic
        while topic is not None:
            yield topic
            topic = topic.super_topic

    def includes(self, other: "Topic") -> bool:
        """Whether ``self`` includes ``other`` (reflexive + transitive).

        ``Ta.includes(Tb)`` is true when ``Ta`` is ``Tb`` or a supertopic of
        ``Tb``: every event of ``Tb`` is also an event of ``Ta``.
        """
        if other is self:  # group members share the hierarchy's Topic
            return True
        mine = self._segments
        # (a deeper ``self`` compares against a shorter slice: unequal)
        return other._segments[: len(mine)] == mine

    def is_strict_supertopic_of(self, other: "Topic") -> bool:
        """Whether ``self`` is a proper (non-equal) supertopic of ``other``."""
        return self != other and self.includes(other)

    def is_subtopic_of(self, other: "Topic") -> bool:
        """Whether ``other`` includes ``self`` (reflexive)."""
        return other.includes(self)

    def common_ancestor(self, other: "Topic") -> "Topic":
        """The deepest topic including both ``self`` and ``other``."""
        prefix: list[str] = []
        for mine, theirs in zip(self._segments, other._segments):
            if mine != theirs:
                break
            prefix.append(mine)
        return Topic(prefix)

    def distance_to_root(self) -> int:
        """Number of inter-group hops from this topic's group to the root's."""
        return self.depth

    def relative_depth(self, ancestor: "Topic") -> int:
        """Number of hops up from ``self`` to ``ancestor``.

        Raises :class:`InvalidTopicName` when ``ancestor`` does not include
        ``self``.
        """
        if not ancestor.includes(self):
            raise InvalidTopicName(
                f"{ancestor.name} does not include {self.name}; no relative depth"
            )
        return self.depth - ancestor.depth

    # ------------------------------------------------------------------
    # Value-object protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topic):
            return NotImplemented
        return self._segments == other._segments

    def __lt__(self, other: "Topic") -> bool:
        if not isinstance(other, Topic):
            return NotImplemented
        return self._segments < other._segments

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Topic({self._name!r})"

    def __str__(self) -> str:
        return self._name


#: The root topic ``.``; the group of processes interested in it is the
#: paper's "root group".
ROOT = Topic(())
