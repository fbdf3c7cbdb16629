"""The naive pattern-(2) strawman: the publisher fans into every supergroup.

§IV-A considers two straightforward topic/group mappings before settling
on daMulticast. Pattern (2) — "a group is created for the subscribers of a
topic ... when an event of topic Tb is published, this event is
disseminated in the group Tb *and to all the groups of all the supertopics
of Tb*" — has the stated disadvantage that it "overload[s] the publishers
(they must publish in several groups)" and "makes of these single points
of failures". daMulticast is "an optimized variant of the second pattern
to achieve a better load distribution".

This comparator implements the naive pattern faithfully:

* one gossip group per topic, containing only its direct subscribers;
* the *publisher* holds a membership table for its own group and for
  every supertopic group (``t`` tables — the memory price), and injects
  each event into all of them itself (the load price);
* inside each group, normal infect-and-die gossip.

``tests/test_baselines_naive.py`` measures exactly the claim: here the
publisher transmits ``Σᵢ fanout(Sᵢ)`` copies per event and is a single
point of failure for the upward flow, whereas in daMulticast the
publisher's burden is one group's fan-out plus at most ``z`` hand-offs,
and any group member can carry the event upward.
"""

from __future__ import annotations

import random

from repro.baselines.common import BaselineSystem, Seat
from repro.membership.columnar import ColumnarSuperBuilder
from repro.topics.topic import Topic


class NaivePublisherSystem(BaselineSystem):
    """Pattern (2) of §IV-A, without daMulticast's optimization."""

    def _draw_tables(self, rng: random.Random) -> dict[Topic, list[Seat]]:
        """Every subscriber joins only its own topic's group; every
        process additionally receives tables for all its supertopic
        groups so it can publish into them (the pattern-2 requirement)."""
        seats = {}
        for topic in self.hierarchy.topics:
            members = self._groups.get(topic)
            if members:
                seats[topic] = [
                    self._draw_group(topic, [p.pid for p in members], rng)
                ]
        # Publisher-side supergroup tables: every process gets one table
        # per *populated* supertopic of its interest, drawn in process
        # order. The publisher is never a member of its supertopic's
        # group, so the draw runs over the full population (an outsider
        # row, nothing to exclude), sized like the group's own tables.
        builders: dict[Topic, ColumnarSuperBuilder] = {}
        drawers: dict[Topic, list[int]] = {}
        for member in self.processes:
            for ancestor in member.topic.ancestors():
                if ancestor not in seats:
                    continue
                if ancestor not in builders:
                    own = seats[ancestor][0][0]
                    builders[ancestor] = ColumnarSuperBuilder(
                        own.members, own.capacity
                    )
                    drawers[ancestor] = []
                builders[ancestor].draw_row(rng)
                drawers[ancestor].append(member.pid)
        for ancestor in sorted(builders):
            tables = builders[ancestor].tables(ancestor, drawers[ancestor])
            seats[ancestor].append((tables, seats[ancestor][0][1]))
        return seats

    def _entry_groups(self, pid: int, topic: Topic) -> list[Topic]:
        """The topic's group and every populated supergroup, walking up —
        all transmissions paid by the publisher (§IV-A's plain arrows)."""
        return [topic, *(a for a in topic.ancestors() if a in self._groups)]
