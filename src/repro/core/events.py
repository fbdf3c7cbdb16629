"""Published events (``e_Ti``) and their identities.

Every event carries a globally unique :class:`EventId` so receivers can
deduplicate (Fig. 5: "if e_Ti not received" — forward/deliver only on first
receipt). Identity is (publisher pid, publisher-local sequence number),
which needs no coordination and is stable across retransmissions; the
system facade's ``publish`` mints it, for every system.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.records import frozen_record
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


@frozen_record
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

    def __str__(self) -> str:
        return f"{self.event_id}@{self.topic.name}"

