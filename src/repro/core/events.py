"""Published events (``e_Ti``) and their identities.

Every event carries a globally unique :class:`EventId` so receivers can
deduplicate (Fig. 5: "if e_Ti not received" — forward/deliver only on first
receipt). Identity is (publisher pid, publisher-local sequence number),
which needs no coordination and is stable across retransmissions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.topics.topic import Topic


class EventId(NamedTuple):
    """Unique identity of a published event.

    A tuple, so the hash, equality and ordering every receipt's
    ``event_id in seen`` and every tracker access pay run in C.
    """

    publisher: int
    sequence: int

    def __str__(self) -> str:
        return f"e{self.publisher}.{self.sequence}"


@dataclass(frozen=True, slots=True)
class Event:
    """An application event of topic ``topic`` (the paper's ``e_Ti``).

    ``topic`` is the topic the event was *published* on; inclusion makes it
    implicitly an event of every supertopic, which is exactly what the
    upward dissemination realizes. ``payload`` is opaque to the protocol.
    """

    event_id: EventId
    topic: Topic
    payload: Any = None
    published_at: float = 0.0

    def is_of_topic(self, other: Topic) -> bool:
        """Whether this event is (also) an event of ``other``.

        True when ``other`` includes the publication topic: an event of
        ``.dsn04.reviewers`` is an event of ``.dsn04`` and of the root.
        """
        return other.includes(self.topic)

    def __str__(self) -> str:
        return f"{self.event_id}@{self.topic.name}"


class EventFactory:
    """Mints :class:`Event` instances with per-publisher sequence numbers."""

    def __init__(self, publisher: int):
        self.publisher = publisher
        self._sequence = itertools.count(1)

    def create(self, topic: Topic, payload: Any, now: float) -> Event:
        """Create the next event of this publisher."""
        return Event(
            event_id=EventId(self.publisher, next(self._sequence)),
            topic=topic,
            payload=payload,
            published_at=now,
        )
