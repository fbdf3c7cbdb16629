"""Wire messages exchanged by the protocols.

Each message class corresponds to a message of the paper's pseudo-code:

* :class:`EventMessage` — an event ``e_Ti`` being gossiped (Figs. 5, 7).
  Its ``scope`` records whether the transmission is *intra-group* (gossip
  inside a topic group) or *inter-group* (a hand-off to the supergroup),
  which is what Figs. 8 and 9 count respectively.
* :class:`ReqContact` / :class:`AnsContact` — the bootstrap search of
  Fig. 4 (``REQCONTACT``/``ANSCONTACT``).
* :class:`NewProcessRequest` / :class:`NewProcessReply` — the supertopic
  table refresh of Fig. 6 (``NEWPROCESS`` in both directions).
* :class:`Ping` / :class:`Pong` — the liveness probes behind Fig. 6's
  ``CHECK`` function ("the detection of alive processes is done via
  timeouts").
* :class:`MembershipGossip` — the underlying membership algorithm's view
  updates ([10]), onto which daMulticast piggybacks supertopic-table
  entries (§V-A.2's initialization-message optimization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Literal

from repro.topics.topic import Topic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.events import Event
    from repro.membership.view import ProcessDescriptor


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Message:
    """Base class for all wire messages. ``sender`` is the process id."""

    kind: ClassVar[str] = "message"
    sender: int


@dataclass(frozen=True, slots=True)
class EventMessage(Message):
    """An application event in flight (the paper's ``SEND(e_Ti)``).

    ``hops`` counts gossip transmissions since publication (the publisher's
    own sends carry 1); the delivery trackers record it
    (``delivery_hops``, ``TopicDeliveryStats.mean_hops``) and it costs
    nothing on the protocol path.
    """

    kind: ClassVar[str] = "event"
    event: "Event"
    scope: Scope
    hops: int = 1


@dataclass(frozen=True, slots=True)
class ReqContact(Message):
    """Fig. 4's ``REQCONTACT``: find processes interested in ``topics``.

    ``requester`` is the process running FIND_SUPER_CONTACT (answers go
    straight back to it, not along the flooding path). ``topics`` is the
    paper's ``initMsg`` — the widening list of acceptable supertopics.
    ``ttl`` bounds the flood ("if initMsg has not expired"); it decreases at
    every re-forwarding hop. ``request_id`` deduplicates the flood.
    """

    kind: ClassVar[str] = "req_contact"
    requester: int
    topics: tuple[Topic, ...]
    request_id: int
    ttl: int


@dataclass(frozen=True, slots=True)
class AnsContact(Message):
    """Fig. 4's ``ANSCONTACT``: contacts interested in ``answered_topic``."""

    kind: ClassVar[str] = "ans_contact"
    answered_topic: Topic
    contacts: tuple["ProcessDescriptor", ...]
    request_id: int


@dataclass(frozen=True, slots=True)
class NewProcessRequest(Message):
    """Fig. 6 lines 19–21: ask a live superprocess for fresh supergroup ids."""

    kind: ClassVar[str] = "new_process_request"
    wanted: int


@dataclass(frozen=True, slots=True)
class NewProcessReply(Message):
    """Fig. 6 lines 2–5: a superprocess answers with known supergroup members."""

    kind: ClassVar[str] = "new_process_reply"
    contacts: tuple["ProcessDescriptor", ...]


@dataclass(frozen=True, slots=True)
class Ping(Message):
    """Liveness probe used by CHECK (Fig. 6, footnote 7)."""

    kind: ClassVar[str] = "ping"
    nonce: int


@dataclass(frozen=True, slots=True)
class Pong(Message):
    """Answer to a :class:`Ping`."""

    kind: ClassVar[str] = "pong"
    nonce: int


@dataclass(frozen=True, slots=True)
class MembershipGossip(Message):
    """A membership view exchange of the underlying algorithm ([10]).

    ``view_sample`` carries topic-table entries; ``super_sample`` piggybacks
    supertopic-table entries (§V-A.2: "once a process has an initialized
    supertopic table, this information is disseminated, using the updates of
    the underlying membership algorithm"). ``nonce`` pairs a shuffle request
    with its reply so unanswered shuffles can expire failed partners.
    """

    kind: ClassVar[str] = "membership_gossip"
    group: Topic
    view_sample: tuple["ProcessDescriptor", ...]
    super_sample: tuple["ProcessDescriptor", ...] = field(default=())
    reply_expected: bool = False
    nonce: int = 0


@dataclass(frozen=True, slots=True)
class JoinRequest(Message):
    """A new member announcing itself to a group's membership ([10] join).

    The direct contact answers with a view sample (so the joiner can fill
    its table) and forwards the announcement with a bounded ``ttl`` so the
    joiner's id spreads through the group's views.
    """

    kind: ClassVar[str] = "join_request"
    joiner: "ProcessDescriptor"
    ttl: int
