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
    from repro.membership.view import ProcessDescriptor


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


@frozen_record
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


@frozen_record
class AnsContact(Message):
    """Fig. 4's ``ANSCONTACT``: contacts interested in ``answered_topic``."""

    kind: ClassVar[str] = "ans_contact"
    answered_topic: Topic
    contacts: tuple["ProcessDescriptor", ...]
    request_id: int


@frozen_record
class NewProcessRequest(Message):
    """Fig. 6 lines 19–21: ask a live superprocess for fresh supergroup ids."""

    kind: ClassVar[str] = "new_process_request"
    wanted: int


@frozen_record
class NewProcessReply(Message):
    """Fig. 6 lines 2–5: a superprocess answers with known supergroup members."""

    kind: ClassVar[str] = "new_process_reply"
    contacts: tuple["ProcessDescriptor", ...]


@frozen_record
class Ping(Message):
    """Liveness probe used by CHECK (Fig. 6, footnote 7)."""

    kind: ClassVar[str] = "ping"
    nonce: int


@frozen_record
class Pong(Message):
    """Answer to a :class:`Ping`."""

    kind: ClassVar[str] = "pong"
    nonce: int


@frozen_record
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
    super_sample: tuple["ProcessDescriptor", ...] = ()
    reply_expected: bool = False
    nonce: int = 0


@frozen_record
class JoinRequest(Message):
    """A new member announcing itself to a group's membership ([10] join).

    The direct contact answers with a view sample (so the joiner can fill
    its table) and forwards the announcement with a bounded ``ttl`` so the
    joiner's id spreads through the group's views.
    """

    kind: ClassVar[str] = "join_request"
    joiner: "ProcessDescriptor"
    ttl: int
