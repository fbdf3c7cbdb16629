"""The wire messages of the §VII flood.

* :class:`EventMessage` — an event ``e_Ti`` being gossiped (Figs. 5, 7).
  Its ``scope`` records whether the transmission is *intra-group* (gossip
  inside a topic group) or *inter-group* (a hand-off to the supergroup),
  which is what Figs. 8 and 9 count respectively.
* :class:`Message` — the base every wire message derives from; the
  dynamic protocol's control messages (Figs. 4 and 6, the membership
  gossip) are in :mod:`repro.net.control`, which only dynamic-mode code
  imports: a static run never sends one.

Every message is a :func:`~repro.records.frozen_record`: a frozen, slotted
dataclass whose ``__init__`` writes each field through its slot. A flood
builds one :class:`EventMessage` per fan-out, and the dataclass's own
``__init__`` would look each field's name up through the class; equality,
hashing, ``repr``, pickling and immutability are the dataclass's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Literal

from repro.records import frozen_record
from repro.topics.topic import Topic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.events import Event


@frozen_record
class Scope:
    """Where an event transmission happens, for Figs. 8/9 accounting.

    ``kind="intra"``: gossip inside ``group`` (Fig. 8 counts these per
    group). ``kind="inter"``: hand-off from ``group`` up to ``super_group``
    (Fig. 9 counts these per edge).
    """

    kind: Literal["intra", "inter"]
    group: Topic
    super_group: Topic | None = None

    def __post_init__(self) -> None:
        if self.kind == "inter" and self.super_group is None:
            raise ValueError("inter-group scope requires a super_group")


@frozen_record
class Message:
    """Base class for all wire messages. ``sender`` is the process id."""

    kind: ClassVar[str] = "message"
    sender: int


@frozen_record
class EventMessage(Message):
    """An application event in flight (the paper's ``SEND(e_Ti)``).

    ``hops`` counts gossip transmissions since publication (the publisher's
    own sends carry 1); the full delivery tracker records it
    (``delivery_hops``) and it costs nothing on the protocol path.
    """

    kind: ClassVar[str] = "event"
    event: "Event"
    scope: Scope
    hops: int = 1
