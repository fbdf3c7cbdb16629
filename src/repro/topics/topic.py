"""Topic names with super/sub-topic navigation: one instance per path.

A topic is a dotted path rooted at ``.`` (the root topic): ``.dsn04`` is the
direct supertopic of ``.dsn04.reviewers``. Following the paper (§III-A):

* ``super(Ti)`` is the direct supertopic; only the root has none.
* ``Ta`` *includes* ``Tb`` when ``Ta`` is a supertopic (direct or not) of
  ``Tb``. :meth:`Topic.includes` is the reflexive closure (a topic includes
  itself) because an event of topic ``Ti`` *is* an event of topic ``Ti``;
  use :meth:`Topic.is_strict_supertopic_of` for the strict relation.

Every event is routed by its topic (§III-A's inclusion, Fig. 7's intra and
inter scopes), so topics are hashed and compared on every transmission.
There is one :class:`Topic` per path: construction, navigation and
unpickling all return the interned instance, so equality is identity and
hashing is ``object.__hash__``, both in C. The table holds topics weakly,
so a long-lived process fed arbitrary names does not grow it. Identity
hashes differ from run to run, so no code may iterate a set of topics in
hash order (the determinism lint's DET003 gates this).
"""

from __future__ import annotations

import re
import threading
import weakref
from functools import total_ordering
from typing import Iterator, Sequence

from repro.errors import InvalidTopicName

_SEGMENT_RE = re.compile(r"^[A-Za-z0-9_\-]+$")

#: segments → the one live topic of that path
_INTERNED: "weakref.WeakValueDictionary[tuple[str, ...], Topic]" = (
    weakref.WeakValueDictionary()
)
#: held while a path's instance is created, so a path never gets two
_INTERN_LOCK = threading.Lock()


def _interned(segments: tuple[str, ...]) -> "Topic":
    """The topic of ``segments`` (already validated), created on first
    use."""
    topic = _INTERNED.get(segments)
    if topic is None:
        with _INTERN_LOCK:
            topic = _INTERNED.get(segments)
            if topic is None:
                topic = object.__new__(Topic)
                topic._segments = segments
                topic._name = "." + ".".join(segments) if segments else "."
                _INTERNED[segments] = topic
    return topic


@total_ordering
class Topic:
    """An immutable topic name: one instance per path; equality is identity.

    ``Topic(segments)``, :meth:`parse`, :meth:`child`, :attr:`super_topic`,
    pickling and ``copy``/``deepcopy`` all return the one live instance of
    a path, so ``==`` and ``hash`` are ``object``'s. The first
    construction of a path validates every segment against
    ``[A-Za-z0-9_-]+``.

    >>> reviewers = Topic.parse(".dsn04.reviewers")
    >>> reviewers.super_topic.name
    '.dsn04'
    >>> Topic.parse(".dsn04").includes(reviewers)
    True
    """

    __slots__ = ("_segments", "_name", "__weakref__")

    def __new__(cls, segments: Sequence[str] = ()) -> "Topic":
        checked = tuple(segments)
        topic = _INTERNED.get(checked)
        if topic is not None:
            return topic
        for segment in checked:
            if not _SEGMENT_RE.match(segment):
                raise InvalidTopicName(
                    f"invalid topic segment {segment!r}: segments must match "
                    f"[A-Za-z0-9_-]+"
                )
        return _interned(checked)

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
    def depth(self) -> int:
        """Distance from the root topic (root has depth 0)."""
        return len(self._segments)

    @property
    def is_root(self) -> bool:
        """Whether this is the root topic ``.``."""
        return not self._segments

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
        return _interned(self._segments[:-1])

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
        if other is self:  # one Topic per path
            return True
        mine = self._segments
        # (a deeper ``self`` compares against a shorter slice: unequal)
        return other._segments[: len(mine)] == mine

    def is_strict_supertopic_of(self, other: "Topic") -> bool:
        """Whether ``self`` is a proper (non-equal) supertopic of ``other``."""
        return self is not other and self.includes(other)

    # ------------------------------------------------------------------
    # Ordering (sorting) and pickling; == and hash are object's
    # ------------------------------------------------------------------
    def __lt__(self, other: "Topic") -> bool:
        if not isinstance(other, Topic):
            return NotImplemented
        return self._segments < other._segments

    def __reduce__(self) -> tuple:
        # unpickling (and copy/deepcopy) construct, i.e. intern
        return Topic, (self._segments,)

    def __str__(self) -> str:
        return self._name


#: The root topic ``.``; the group of processes interested in it is the
#: paper's "root group".
ROOT = Topic(())
