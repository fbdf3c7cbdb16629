"""The two membership tables of a daMulticast process (§V-A.1, Fig. 3).

* The **topic table** ``Table_Ti`` holds processes interested in the same
  topic; it is populated by the underlying membership algorithm (dynamic
  mode: :class:`repro.membership.flat.FlatMembership`; static mode: drawn
  once by :mod:`repro.membership.columnar`).
* The **supertopic table** ``sTable_Ti`` (this module) has *constant* size
  ``z`` and holds processes of the nearest populated supertopic. It tracks
  which entries recently proved alive (Pongs), implements the paper's MERGE
  ("keeping the favorite superprocesses ... replacing the failed ones with
  the fresh ones", footnote 5) and CHECK ("returns the total number of
  processes that are alive in the supertopic table. The detection of alive
  processes is done via timeouts", footnote 7).
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.membership.view import PartialView, ProcessDescriptor
from repro.topics.topic import Topic


class SuperTopicTable:
    """``sTable_Ti``: constant-size table of superprocesses.

    All entries share one ``target_topic`` — the supertopic group the table
    currently points at. Normally that is ``super(Ti)``; when nobody is
    interested in it, the table temporarily points at the nearest populated
    supertopic (§III-B) and the bootstrap task keeps searching for closer
    contacts, re-targeting the table when it finds some.
    """

    def __init__(self, z: int):
        self._view = PartialView(max(1, z))
        self.z = z
        self.target_topic: Topic | None = None
        self._last_proof: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Content management
    # ------------------------------------------------------------------
    def adopt(
        self,
        topic: Topic,
        descriptors: Iterable[ProcessDescriptor],
        rng: random.Random,
        own_topic: Topic | None = None,
    ) -> bool:
        """Merge contacts of supertopic ``topic`` into the table.

        Re-targeting rule: a strictly *deeper* supertopic (closer to our own
        topic) evicts everything — those contacts are better links, because
        events climb one level at a time. Contacts of the current target
        merge normally; contacts of a shallower topic than the current
        target are ignored. Returns whether anything was admitted.

        ``own_topic`` guards against corrupted answers: candidates whose
        topic does not include it are rejected.
        """
        if own_topic is not None and not topic.is_strict_supertopic_of(own_topic):
            return False
        candidates = [d for d in descriptors if d.topic == topic]
        if not candidates:
            return False
        if self.target_topic is None or topic.depth > self.target_topic.depth:
            self._view.clear()
            self._last_proof.clear()
            self.target_topic = topic
        elif topic != self.target_topic:
            return False
        before = len(self._view)
        self._view.merge(candidates, rng)
        return len(self._view) > before or before == 0

    def merge_fresh(
        self,
        stale_pids: Iterable[int],
        fresh: Iterable[ProcessDescriptor],
    ) -> int:
        """The paper's MERGE: drop failed entries, admit fresh ones.

        Favorites (surviving entries) are kept; fresh descriptors only fill
        freed capacity. Descriptors of the wrong topic are rejected.
        """
        stale = list(stale_pids)
        matching = [
            d
            for d in fresh
            if self.target_topic is not None and d.topic == self.target_topic
        ]
        admitted = self._view.replace(stale, matching)
        for pid in stale:
            self._last_proof.pop(pid, None)
        return admitted

    def clear(self) -> None:
        """Empty the table and forget its target."""
        self._view.clear()
        self._last_proof.clear()
        self.target_topic = None

    # ------------------------------------------------------------------
    # Liveness bookkeeping (CHECK)
    # ------------------------------------------------------------------
    def record_proof_of_life(self, pid: int, now: float) -> None:
        """Note that ``pid`` demonstrably existed at ``now`` (Pong/any msg)."""
        if pid in self._view:
            self._last_proof[pid] = now

    def check(self, now: float, timeout: float) -> int:
        """The paper's CHECK: how many entries proved alive recently.

        An entry counts as alive when it produced a proof of life within
        ``timeout`` of ``now``. Entries never heard from are presumed dead
        (the conservative reading of "detection ... via timeouts").
        """
        alive = 0
        for pid in self._view.pids:
            proof = self._last_proof.get(pid)
            if proof is not None and now - proof <= timeout:
                alive += 1
        return alive

    def alive_pids(self, now: float, timeout: float) -> list[int]:
        """Entries with a recent proof of life (see :meth:`check`)."""
        return [
            pid
            for pid in self._view.pids
            if pid in self._last_proof and now - self._last_proof[pid] <= timeout
        ]

    def stale_pids(self, now: float, timeout: float) -> list[int]:
        """Entries without a recent proof of life."""
        alive = set(self.alive_pids(now, timeout))
        return [pid for pid in self._view.pids if pid not in alive]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """Whether the table has no entries (triggers FIND_SUPER_CONTACT)."""
        return len(self._view) == 0

    def targets_direct_super_of(self, own_topic: Topic) -> bool:
        """Whether the table points at ``super(own_topic)`` itself."""
        return self.target_topic is not None and (
            own_topic.super_topic == self.target_topic
        )

    def descriptors(self) -> tuple[ProcessDescriptor, ...]:
        """All entries, oldest (favorite) first."""
        return self._view.descriptors()

    def sample(
        self, k: int, rng: random.Random
    ) -> list[ProcessDescriptor]:
        """Uniform sample of up to ``k`` entries (for piggybacking)."""
        return self._view.sample(k, rng)

    @property
    def pids(self) -> list[int]:
        """Entry pids, oldest first: the view's own list, not a copy, so
        read it and never mutate it or hold it across a mutation."""
        return self._view.pids

    def __len__(self) -> int:
        return len(self._view)
