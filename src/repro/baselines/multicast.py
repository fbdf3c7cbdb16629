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

import random

from repro.baselines.common import BaselineSystem, Seat
from repro.topics.topic import Topic


class GossipMulticastSystem(BaselineSystem):
    """Per-topic gossip groups; subscribers join every subtopic group."""

    def _draw_tables(self, rng: random.Random) -> dict[Topic, list[Seat]]:
        """One table per (process, relevant topic group).

        A process subscribed to ``Ta`` joins the group of every registered
        topic that ``Ta`` includes — ``Ta`` itself and all its subtopics —
        so group ``T`` is the subscribers of ``T`` and of its supertopics,
        in pid order (groups are contiguous pid blocks, added in order).
        """
        seats = {}
        for topic in self.hierarchy.topics:
            pids = [
                member.pid
                for subscribed, members in self._groups.items()
                if subscribed.includes(topic)
                for member in members
            ]
            if pids:
                seats[topic] = [self._draw_group(topic, pids, rng)]
        return seats
