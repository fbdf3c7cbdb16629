"""Multiple supertopics — the extension sketched in §VIII.

"In this paper we tackled the case where a topic has only one direct
supertopic, mainly for presentation simplicity. Multiple supertopics
(i.e., multiple inheritance) could be easily supported by either adapting
the membership algorithm or by adding a supertopic table for each
supertopic."

This module implements the second option on a :class:`~repro.topics.
hierarchy.TopicDag`, as a variation of the one static system rather than
a second one: each process reads its topic table off its group's columns,
as every static process does, and keeps one
:class:`~repro.core.tables.SuperTopicTable` *per direct supertopic* of its
topic; dissemination runs the Fig. 7 inter-group hand-off once per
table. Deduplication (Fig. 5) keeps reconverging paths (diamonds in the
DAG) from double-delivering. Inclusion — and therefore the no-parasite
invariant — follows DAG reachability instead of dotted-path prefixes.
Over a DAG without extra links every topic has one parent, and the
system is bit-identical to ``DaMulticastSystem(mode="static")``: §VIII
with one supertopic *is* §V.
"""

from __future__ import annotations

import functools
from typing import Any

from repro.core.dissemination import elect_links
from repro.core.events import Event
from repro.core.process import StaticProcess
from repro.core.system import DaMulticastSystem
from repro.core.tables import SuperTopicTable
from repro.errors import ProtocolError, UnknownTopic
from repro.membership.columnar import ColumnarSuperBuilder, ColumnarTableBuilder
from repro.membership.view import ProcessDescriptor
from repro.topics.hierarchy import TopicDag
from repro.topics.topic import Topic


class MultiParentProcess(StaticProcess):
    """A static daMulticast process whose topic may have several
    supertopics: its group's columns hold no super rows, and it keeps one
    supertopic table per direct supertopic instead."""

    def __init__(self, dag: TopicDag, *args: Any, **wiring: Any):
        super().__init__(*args, **wiring)
        self.dag = dag
        #: one supertopic table per direct supertopic (§VIII)
        self.super_tables: dict[Topic, SuperTopicTable] = {}

    def interested_in(self, event: Event) -> bool:
        """DAG-aware inclusion: our topic is the event's topic or one of
        its (multi-inheritance) ancestors."""
        return event.topic == self.topic or self.dag.is_ancestor(
            self.topic, event.topic
        )

    def link_targets(self, force_link: bool) -> list[tuple[Topic, list[int]]]:
        """Hand-off pids for EVERY supergroup: one election per table,
        each table's elected contacts one batch."""
        if self.group_size != self._sized_for:
            self._size_group_constants()
        links: list[tuple[Topic, list[int]]] = []
        # repro-lint: allow[DET003]: super_tables is built in sorted-parent order at finalize; sorting would permute the draw sequence
        for table in self.super_tables.values():
            links += elect_links(
                table, self._p_sel, self._p_a, self._rng, force_link
            )
        return links

    def _deliver(self, event: Event, hops: int = 0) -> None:
        if not self.interested_in(event):
            raise ProtocolError(
                f"parasite delivery: {self.topic.name} process got event "
                f"of {event.topic.name}"
            )
        if self._tracker is not None:
            self._tracker.record_delivery(
                self.pid, event, self.engine.now, hops=hops
            )
        if self._delivery_callback is not None:
            self._delivery_callback(self, event)

    @property
    def memory_footprint(self) -> int:
        """Topic-table entries plus all supertopic tables (§VIII: one
        constant-size table per direct supertopic)."""
        return self._topic_entries() + sum(
            len(table) for table in self.super_tables.values()
        )

    def __repr__(self) -> str:
        return (
            f"MultiParentProcess(pid={self.pid}, topic={self.topic.name}, "
            f"supers={len(self.super_tables)})"
        )


class MultiParentSystem(DaMulticastSystem):
    """The static daMulticast system over a topic DAG: what differs is
    which topics may be populated, what inclusion means, and the table
    draw (one supertopic table per parent)."""

    def __init__(self, dag: TopicDag, **options: Any):
        super().__init__(mode="static", **options)
        self.dag = dag
        self._process_class = functools.partial(MultiParentProcess, dag)

    def _admit(self, topic: Topic | str) -> Topic:
        resolved = Topic.parse(topic) if isinstance(topic, str) else topic
        if resolved not in self.dag:
            raise UnknownTopic(f"{resolved.name} is not in the DAG")
        return super()._admit(resolved)

    def _interested_count(self, topic: Topic) -> int:
        """Intended receivers of a ``topic`` event: members of ``topic``'s
        group and of every DAG-ancestor group (multi-parent inclusion)."""
        return sum(
            len(members)
            for t, members in self._groups.items()
            if t == topic or self.dag.is_ancestor(t, topic)
        )

    # ------------------------------------------------------------------
    # Static membership over the DAG
    # ------------------------------------------------------------------
    def _nearest_populated_up(self, start: Topic) -> Topic | None:
        """BFS upward from ``start`` for the nearest populated ancestor."""
        seen = {start}
        frontier = [start]
        while frontier:
            next_frontier: list[Topic] = []
            for node in frontier:
                if self._groups.get(node):
                    return node
                for parent in self.dag.parents_of(node):
                    if parent not in seen:
                        seen.add(parent)
                        next_frontier.append(parent)
            frontier = next_frontier
        return None

    def finalize_static_membership(self) -> None:
        """Draw the topic rows and one supertopic table per parent.

        Same stream, group order and per-member interleaving of topic and
        supertopic draws as :meth:`DaMulticastSystem.
        finalize_static_membership` — the member's topic row from the same
        builder, then one ``z``-draw per parent — so a topic with one
        parent consumes exactly the draws it would there.
        """
        rng = self._membership_rng()
        for topic, members in self._groups.items():
            params = self.config.params_for(topic)
            z = params.z
            builder = ColumnarTableBuilder(
                [p.pid for p in members], params.table_capacity(len(members))
            )
            tables = builder.tables(topic)
            parent_builders = [
                (
                    parent,
                    target,
                    ColumnarSuperBuilder([p.pid for p in self._groups[target]], z),
                )
                for parent in self.dag.parents_of(topic)
                if (target := self._nearest_populated_up(parent)) is not None
            ]
            for index, process in enumerate(members):
                builder.draw_row(index, rng)
                process.seat(tables, index)
                process.super_tables = {}
                for parent, target, super_builder in parent_builders:
                    super_builder.draw_row(rng)
                    row = super_builder.rows[-super_builder.stride :]
                    table = process.super_tables[parent] = SuperTopicTable(z)
                    table.install(target, [ProcessDescriptor(pid, target) for pid in row])
        self._finalized = True
