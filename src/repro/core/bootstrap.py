"""FIND_SUPER_CONTACT — the bootstrap search of Fig. 4.

A process joining topic ``Ti`` must populate its supertopic table. If no
contact in ``super(Ti)`` is known a priori, it floods ``REQCONTACT``
messages over the weakly-consistent global overlay (``neighborhood(p)``),
asking for processes interested in a *widening* list of supertopics:

* the search starts with ``[super(Ti)]``;
* after each timeout with no (satisfying) answer, the next supertopic up is
  appended, until the list contains the root topic (Fig. 4 lines 19–27);
* any process knowing contacts for a listed topic answers ``ANSCONTACT``
  directly to the requester; otherwise it re-floods to its own
  neighborhood while the message's TTL lasts (lines 4–12);
* an answer for exactly ``super(Ti)`` stops the task; an answer for a
  farther supertopic ``Tx`` initializes the table but *narrows* the search
  to topics below ``Tx`` and keeps going (lines 30–36; prose §V-A.2.a — we
  follow the prose where the pseudo-code's stop condition reads
  ``Tx == Ti``, see DESIGN.md note 4).

Answers merge into the supertopic table via
:meth:`repro.core.tables.SuperTopicTable.adopt`, whose re-targeting rule
(deeper supertopic wins) implements the narrowing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.membership.view import ProcessDescriptor
from repro.net.control import AnsContact, ReqContact
from repro.sim.clock import PeriodicTask
from repro.topics.topic import Topic
from repro.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.process import DaMulticastProcess

#: timeouts a search runs before it gives up (KEEP_TABLE_UPDATED restarts
#: it while the supertopic table is still empty)
MAX_ATTEMPTS = 10


class FindSuperContact:
    """The per-process FIND_SUPER_CONTACT task."""

    def __init__(
        self,
        process: "DaMulticastProcess",
        *,
        timeout: float,
        ttl: int,
    ):
        check_positive(timeout, "timeout")
        self._process = process
        self._timeout = timeout
        self._ttl = ttl
        self._max_attempts = MAX_ATTEMPTS
        self._targets: list[Topic] = []
        self._attempts = 0
        #: floods are deduplicated by ``(requester, request_id)``, so the
        #: ids only have to be unique per requester: counted here, a second
        #: run of one ``(spec, seed)`` in the same interpreter sends the
        #: same ids as the first
        self._last_request_id = 0
        self._task: PeriodicTask | None = None
        self.active = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin (or restart) the search; no-op if already running or if
        the process's topic is the root (which has no supertopic)."""
        if self.active:
            return
        own = self._process.topic
        if own.is_root:
            return
        direct_super = own.super_topic
        assert direct_super is not None
        self._targets = [direct_super]
        self._attempts = 0
        self.active = True
        self._flood()  # first attempt immediately (Fig. 4 starts eagerly)
        self._task = self._process.engine.every(
            self._timeout, self._on_timeout, initial_delay=self._timeout
        )

    def stop(self) -> None:
        """Stop searching (direct supercontact found, or shutting down)."""
        self.active = False
        if self._task is not None:
            self._task.stop()
            self._task = None

    # ------------------------------------------------------------------
    # Periodic widening (Fig. 4 lines 14-28)
    # ------------------------------------------------------------------
    def _on_timeout(self) -> bool:
        if not self.active:
            return False
        if self._attempts >= self._max_attempts:
            # Give up for now; KEEP_TABLE_UPDATED restarts us if the table
            # is still empty (Fig. 6 lines 12-14).
            self.stop()
            return False
        self._widen()
        self._flood()
        return True

    def _widen(self) -> None:
        """Append the next supertopic up, until the root is included."""
        farthest = self._targets[-1]
        next_up = farthest.super_topic
        if next_up is not None and next_up not in self._targets:
            self._targets.append(next_up)

    def _flood(self) -> None:
        process = self._process
        self._attempts += 1
        self._last_request_id += 1
        request = ReqContact(
            sender=process.pid,
            requester=process.pid,
            topics=tuple(self._targets),
            request_id=self._last_request_id,
            ttl=self._ttl,
        )
        process.multicast(
            [contact.pid for contact in process.neighborhood()], request
        )

    # ------------------------------------------------------------------
    # Answer processing (Fig. 4 lines 29-37)
    # ------------------------------------------------------------------
    def on_answer(self, message: AnsContact) -> None:
        """Merge an ``ANSCONTACT`` and stop/narrow the search accordingly."""
        if not self.active:
            # Late answers still improve the table (MERGE, line 36).
            self._process.super_table.adopt(
                message.answered_topic,
                message.contacts,
                self._process.rng,
                own_topic=self._process.topic,
            )
            return
        own = self._process.topic
        answered = message.answered_topic
        adopted = self._process.super_table.adopt(
            answered, message.contacts, self._process.rng, own_topic=own
        )
        if not adopted:
            return
        if answered == own.super_topic:
            self.stop()  # found the direct supertopic: done (line 31-32)
        else:
            # Narrow: drop every target that includes the found topic
            # (line 34) — keep searching only below Tx.
            self._targets = [
                t for t in self._targets if not t.includes(answered)
            ] or [own.super_topic]  # never let the list go empty


def handle_req_contact(
    process: "DaMulticastProcess", message: ReqContact
) -> None:
    """The receiver side of the flood (Fig. 4 lines 2-13), run by *every*
    process: answer if we know contacts for a listed topic, else re-flood.
    """
    # Dedup: each process forwards/answers a given request once.
    key = (message.requester, message.request_id)
    if key in process.seen_requests:
        return
    process.seen_requests.add(key)
    if message.requester == process.pid:
        return

    known = known_contacts_for(process, message.topics)
    if known:
        answered_topic, contacts = known
        process.send(
            message.requester,
            AnsContact(
                sender=process.pid,
                answered_topic=answered_topic,
                contacts=tuple(contacts),
                request_id=message.request_id,
            ),
        )
        return  # Fig. 4 line 7: answer and stop forwarding.

    if message.ttl > 0:
        forwarded = ReqContact(
            sender=process.pid,
            requester=message.requester,
            topics=message.topics,
            request_id=message.request_id,
            ttl=message.ttl - 1,
        )
        process.multicast(
            [
                contact.pid
                for contact in process.neighborhood()
                if contact.pid != message.sender
                and contact.pid != message.requester
            ],
            forwarded,
        )


def known_contacts_for(
    process: "DaMulticastProcess", topics: tuple[Topic, ...]
) -> tuple[Topic, list[ProcessDescriptor]] | None:
    """Contacts this process can vouch for, for the *deepest* listed topic.

    Preference order: the deepest topic wins because it is the most useful
    answer (closest to the requester's own topic). Sources of knowledge:
    our own identity and topic table (all interested in our topic) and our
    supertopic table (interested in its target topic).
    """
    by_topic: dict[Topic, list[ProcessDescriptor]] = {}
    wanted = set(topics)
    if process.topic in wanted:
        mine = [process.descriptor]
        mine.extend(process.topic_table().descriptors())
        by_topic[process.topic] = mine
    super_table = process.super_table
    if super_table.target_topic in wanted and len(super_table):
        by_topic.setdefault(super_table.target_topic, []).extend(
            super_table.descriptors()
        )
    if not by_topic:
        return None
    deepest = max(by_topic, key=lambda t: t.depth)
    # Bound the answer size: a z-sized sample is all the requester can hold.
    contacts = by_topic[deepest][: max(4, process.params.z)]
    return deepest, contacts
