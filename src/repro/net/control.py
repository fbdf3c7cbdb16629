"""The dynamic protocol's control messages.

The §VII simulation floods events over tables drawn once and sends none
of these; only dynamic-mode code (the process, bootstrap, maintenance and
flat membership) imports this module, so a static run never builds them.
Each class is a message of the paper's pseudo-code:

* :class:`ReqContact` / :class:`AnsContact` — the bootstrap search of
  Fig. 4 (``REQCONTACT``/``ANSCONTACT``).
* :class:`NewProcessRequest` / :class:`NewProcessReply` — the supertopic
  table refresh of Fig. 6 (``NEWPROCESS`` in both directions).
* :class:`Ping` / :class:`Pong` — the liveness probes behind Fig. 6's
  ``CHECK`` function ("the detection of alive processes is done via
  timeouts").
* :class:`MembershipGossip` / :class:`JoinRequest` — the underlying
  membership algorithm's view updates and joins ([10]), onto which
  daMulticast piggybacks supertopic-table entries (§V-A.2's
  initialization-message optimization).

Like every wire message, each is a :func:`~repro.records.frozen_record`
deriving from :class:`~repro.net.message.Message`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro.net.message import Message
from repro.records import frozen_record
from repro.topics.topic import Topic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.membership.view import ProcessDescriptor


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
