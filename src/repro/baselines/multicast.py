"""Baseline (b): gossip-based multicast (one group per topic).

This is §IV-A's pattern (1): "a group is created for the publishers of a
topic ... a subscriber of topic Ta becomes a member of the group Ta and
member of all the groups of the subtopics of Ta. When an event of topic Tb
is published, this event is only disseminated in the group Tb."

So the *members* of group ``Tb`` are every process whose subscription
includes ``Tb`` — its own subscribers plus the subscribers of each
supertopic. Each process therefore maintains one membership table per
registered subtopic of its interest (up to ``t`` tables on a chain,
``Σ(log S_Ti + c_Ti)`` memory — §VI-E.2), but receives no parasite events.
"""

from __future__ import annotations

from repro.baselines.common import BaselineProcess, BaselineSystem
from repro.topics.topic import Topic


class GossipMulticastSystem(BaselineSystem):
    """Per-topic gossip groups; subscribers join every subtopic group."""

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def group_members(self, topic: Topic) -> list[BaselineProcess]:
        """Everyone who must be in group ``topic``: processes whose
        subscription includes it (subscribers of ``topic`` or a supertopic)."""
        return [
            p for p in self.processes if p.interest.includes(topic)
        ]

    def finalize_membership(self) -> None:
        """Draw one table per (process, relevant topic group).

        A process subscribed to ``Ta`` joins the group of every registered
        topic that ``Ta`` includes — ``Ta`` itself and all its subtopics.
        """
        rng = self._membership_rng()
        for topic in self.hierarchy.topics:
            members = self.group_members(topic)
            if members:
                self._draw_group(topic, members, rng)
        self._finalized = True
