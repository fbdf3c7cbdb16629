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

from repro.baselines.common import BaselineProcess, BaselineSystem
from repro.core.events import Event
from repro.membership.columnar import ColumnarGroupTables, ColumnarSuperBuilder
from repro.topics.topic import Topic


class NaivePublisherSystem(BaselineSystem):
    """Pattern (2) of §IV-A, without daMulticast's optimization."""

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def finalize_membership(self) -> None:
        """Every subscriber joins only its own topic's group; every
        process additionally receives tables for all its supertopic
        groups so it can publish into them (the pattern-2 requirement)."""
        rng = self._membership_rng()
        own: dict[Topic, ColumnarGroupTables] = {}
        for topic in self.hierarchy.topics:
            members = self.group(topic)
            if members:
                own[topic] = self._draw_group(topic, members, rng)
        # Publisher-side supergroup tables: every process gets one table
        # per *populated* supertopic of its interest, drawn in process
        # order. The publisher is never a member of its supertopic's
        # group, so the draw runs over the full population (an outsider
        # row, nothing to exclude), sized like the group's own tables.
        builders: dict[Topic, ColumnarSuperBuilder] = {}
        drawers: dict[Topic, list[int]] = {}
        seats: list[tuple[BaselineProcess, Topic, int]] = []
        for process in self.processes:
            for ancestor in process.interest.ancestors():
                group = own.get(ancestor)
                if group is None:
                    continue
                if ancestor not in builders:
                    builders[ancestor] = ColumnarSuperBuilder(
                        group.members, group.capacity
                    )
                    drawers[ancestor] = []
                builders[ancestor].draw_row(rng)
                seats.append((process, ancestor, len(drawers[ancestor])))
                drawers[ancestor].append(process.pid)
        # joined in draw order: a process's groups are its publish order
        outsiders = {
            ancestor: builder.tables(ancestor, drawers[ancestor])
            for ancestor, builder in builders.items()
        }
        for process, ancestor, row in seats:
            fanout = self.params.fanout(own[ancestor].size)
            process.join_group(ancestor, outsiders[ancestor], row, fanout)
        self._finalized = True

    # ------------------------------------------------------------------
    # Publishing: the publisher fans into every group itself
    # ------------------------------------------------------------------
    def _inject(self, publisher: BaselineProcess, event: Event) -> None:
        """The topic's group and every supergroup — all transmissions paid
        by the publisher (§IV-A's plain arrows)."""
        publisher.publish_in_groups(
            event,
            [group for group in publisher.groups if group.includes(event.topic)],
        )
