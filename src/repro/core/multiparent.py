"""Multiple supertopics — the extension sketched in §VIII.

"In this paper we tackled the case where a topic has only one direct
supertopic, mainly for presentation simplicity. Multiple supertopics
(i.e., multiple inheritance) could be easily supported by either adapting
the membership algorithm or by adding a supertopic table for each
supertopic."

This module implements the second option on a :class:`~repro.topics.
hierarchy.TopicDag`: each process keeps one
:class:`~repro.core.tables.SuperTopicTable` *per direct supertopic* of its
topic, and dissemination runs the Fig. 7 inter-group hand-off once per
table. Deduplication (Fig. 5) keeps reconverging paths (diamonds in the
DAG) from double-delivering. Inclusion — and therefore the no-parasite
invariant — follows DAG reachability instead of dotted-path prefixes.

The extension is provided in the paper's §VII style (static membership):
tables are drawn from global knowledge by
:meth:`MultiParentSystem.finalize_static_membership`.
"""

from __future__ import annotations

import functools
from typing import Any

from repro.core.dissemination import disseminate, elect_links, sample_gossip
from repro.core.events import Event, EventFactory, EventId
from repro.core.params import DaMulticastConfig
from repro.core.tables import SuperTopicTable
from repro.errors import ConfigError, ProtocolError, UnknownTopic
from repro.failures.model import FailureModel
from repro.membership.static import GroupSampler, GroupTableBuilder
from repro.membership.view import PartialView, ProcessDescriptor
from repro.metrics.delivery import delivered_fraction
from repro.net.latency import LatencyModel, ZERO_LATENCY
from repro.net.message import EventMessage, Message, Scope
from repro.runtime import SimulationHarness
from repro.topics.hierarchy import TopicDag
from repro.topics.topic import Topic


class MultiParentProcess:
    """A daMulticast process whose topic may have several supertopics."""

    def __init__(
        self,
        pid: int,
        topic: Topic,
        config: DaMulticastConfig,
        dag: TopicDag,
        harness: SimulationHarness,
    ):
        self.pid = pid
        self.topic = topic
        self.config = config
        self.dag = dag
        self._harness = harness
        self.rng = harness.rngs.stream(f"mp-process/{pid}")
        self.descriptor = ProcessDescriptor(pid, topic)
        self.intra_scope = Scope("intra", topic)
        params = config.params_for(topic)
        self.topic_view = PartialView(1)  # replaced at finalize time
        #: one supertopic table per direct supertopic (§VIII)
        self.super_tables: dict[Topic, SuperTopicTable] = {}
        self.group_size = 1
        #: set by the system facade: intended receivers of our events over
        #: a perfect network (our group + every DAG-ancestor group)
        self.expected_provider: Any = None
        self.seen: set[EventId] = set()
        self.delivered: list[Event] = []
        self._params = params
        self._event_factory = EventFactory(pid)

    # ------------------------------------------------------------------
    # Inclusion on the DAG
    # ------------------------------------------------------------------
    def interested_in(self, event: Event) -> bool:
        """DAG-aware inclusion: our topic is the event's topic or one of
        its (multi-inheritance) ancestors."""
        return event.topic == self.topic or self.dag.is_ancestor(
            self.topic, event.topic
        )

    # ------------------------------------------------------------------
    # Dissemination (Fig. 7, once per supertopic table)
    # ------------------------------------------------------------------
    def publish(self, payload: Any = None) -> Event:
        """Publish an event of our topic and disseminate it."""
        event = self._event_factory.create(
            self.topic, payload, self._harness.now
        )
        expected = (
            self.expected_provider()
            if self.expected_provider is not None
            else self.group_size
        )
        self._harness.tracker.record_publish(
            event, self.pid, expected=expected
        )
        self.seen.add(event.event_id)
        self._deliver(event)
        disseminate(
            self, event, force_link=self.config.publisher_always_links
        )
        return event

    def handle_message(self, message: Message) -> None:
        """Fig. 5 RECEIVE: deliver + disseminate on first reception."""
        if not isinstance(message, EventMessage):
            raise ProtocolError(
                f"multi-parent process {self.pid} got "
                f"{type(message).__name__}"
            )
        event = message.event
        if event.event_id in self.seen:
            return
        self.seen.add(event.event_id)
        self._deliver(event)
        disseminate(self, event)

    def link_targets(self, force_link: bool) -> list[tuple[Topic, list[int]]]:
        """Hand-off pids for EVERY supergroup: one election per table,
        each table's elected contacts one batch."""
        links: list[tuple[Topic, list[int]]] = []
        # repro-lint: allow[DET003]: super_tables is built in fixed ancestor order at construction; sorting would permute the draw sequence and break golden digests
        for table in self.super_tables.values():
            links += elect_links(
                table, self._params, self.group_size, self.rng, force_link
            )
        return links

    def gossip_targets(self) -> list[int]:
        """``log(S)+c`` distinct pids of our own group's table."""
        return sample_gossip(
            self.topic_view, self._params, self.group_size, self.rng, self.pid
        )

    def _deliver(self, event: Event) -> None:
        if not self.interested_in(event):
            raise ProtocolError(
                f"parasite delivery: {self.topic.name} process got event "
                f"of {event.topic.name}"
            )
        self.delivered.append(event)
        self._harness.tracker.record_delivery(
            self.pid, event, self._harness.now
        )

    def multicast(self, targets: list[int], message: Message) -> None:
        """Send one message to many targets via the batched fast path."""
        self._harness.network.multicast(self.pid, targets, message)

    @property
    def memory_footprint(self) -> int:
        """Topic-table entries plus all supertopic tables (§VIII: one
        constant-size table per direct supertopic)."""
        return len(self.topic_view) + sum(
            len(table) for table in self.super_tables.values()
        )

    def __repr__(self) -> str:
        return (
            f"MultiParentProcess(pid={self.pid}, topic={self.topic.name}, "
            f"supers={len(self.super_tables)})"
        )


class MultiParentSystem:
    """A static-mode daMulticast deployment over a topic DAG."""

    def __init__(
        self,
        dag: TopicDag,
        *,
        config: DaMulticastConfig | None = None,
        seed: int = 0,
        p_success: float = 1.0,
        latency: LatencyModel = ZERO_LATENCY,
        failure_model: FailureModel | None = None,
    ):
        self.dag = dag
        self.config = config or DaMulticastConfig()
        self.harness = SimulationHarness(
            seed=seed,
            p_success=p_success,
            latency=latency,
            failure_model=failure_model,
        )
        self._groups: dict[Topic, list[MultiParentProcess]] = {}
        self._finalized = False

    def close(self) -> None:
        """Release every process of a finished system (idempotent); see
        :meth:`repro.core.system.DaMulticastSystem.close`."""
        self._groups.clear()
        self.harness.close()

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add_process(self, topic: Topic | str) -> MultiParentProcess:
        """Create one process interested in ``topic`` (must be in the DAG)."""
        self.harness.require_open()
        resolved = Topic.parse(topic) if isinstance(topic, str) else topic
        if resolved not in self.dag:
            raise UnknownTopic(f"{resolved.name} is not in the DAG")
        process = MultiParentProcess(
            self.harness.next_pid(),
            resolved,
            self.config,
            self.dag,
            self.harness,
        )
        self.harness.network.register(process)
        self._groups.setdefault(resolved, []).append(process)
        process.expected_provider = functools.partial(
            self._interested_count, resolved
        )
        return process

    def _interested_count(self, topic: Topic) -> int:
        """Intended receivers of a ``topic`` event: members of ``topic``'s
        group and of every DAG-ancestor group (multi-parent inclusion)."""
        return sum(
            len(members)
            for t, members in self._groups.items()
            if t == topic or self.dag.is_ancestor(t, topic)
        )

    def add_group(self, topic: Topic | str, count: int) -> list[MultiParentProcess]:
        """Create ``count`` processes interested in ``topic``."""
        if count < 1:
            raise ConfigError(f"count must be >= 1, got {count}")
        return [self.add_process(topic) for _ in range(count)]

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
                members = self._groups.get(node)
                if members:
                    return node
                for parent in self.dag.parents_of(node):
                    if parent not in seen:
                        seen.add(parent)
                        next_frontier.append(parent)
            frontier = next_frontier
        return None

    def finalize_static_membership(self) -> None:
        """Draw the topic table and one supertopic table per parent.

        One shared :class:`GroupTableBuilder` per group and one
        :class:`GroupSampler` per populated ancestor target replace the
        former per-member exclusion-list and supergroup-copy rebuilds
        (O(S²) per group), with draw-identical results.
        """
        rng = self.harness.rngs.stream("static-membership")
        # repro-lint: allow[DET003]: _groups preserves deterministic subscription order; sorting would change the membership draw sequence vs goldens
        for topic, members in self._groups.items():
            params = self.config.params_for(topic)
            size = len(members)
            capacity = params.table_capacity(size)
            descriptors = [p.descriptor for p in members]
            builder = GroupTableBuilder(descriptors)
            parent_samplers: list[tuple[Topic, Topic, GroupSampler]] = []
            for parent in self.dag.parents_of(topic):
                target = self._nearest_populated_up(parent)
                if target is None:
                    continue
                parent_samplers.append(
                    (
                        parent,
                        target,
                        GroupSampler(
                            [p.descriptor for p in self._groups[target]]
                        ),
                    )
                )
            for index, process in enumerate(members):
                process.topic_view = builder.table_at(index, capacity, rng)
                process.group_size = size
                process.super_tables = {}
                for parent, target, sampler in parent_samplers:
                    table = SuperTopicTable(params.z)
                    sampled = sampler.sample(params.z, rng)
                    # own_topic check is path-based; DAG adoption validates
                    # via the DAG instead, so pass own_topic=None.
                    table.adopt(target, sampled, rng)
                    process.super_tables[parent] = table
        self._finalized = True

    # ------------------------------------------------------------------
    # Publishing & queries
    # ------------------------------------------------------------------
    def publish(
        self,
        topic: Topic | str,
        payload: Any = None,
        *,
        publisher: MultiParentProcess | None = None,
    ) -> Event:
        """Publish from a (given or random alive) member of ``topic``."""
        self.harness.require_open()
        if not self._finalized:
            raise ConfigError("call finalize_static_membership() first")
        resolved = Topic.parse(topic) if isinstance(topic, str) else topic
        if publisher is None:
            members = [
                p
                for p in self._groups.get(resolved, [])
                if self.harness.is_alive(p.pid)
            ]
            if not members:
                raise UnknownTopic(
                    f"no alive process interested in {resolved.name}"
                )
            publisher = self.harness.rngs.stream("publish").choice(members)
        return publisher.publish(payload)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run the simulation to quiescence."""
        return self.harness.run_until_idle(max_events=max_events)

    def group(self, topic: Topic | str) -> list[MultiParentProcess]:
        """Processes interested in exactly ``topic``."""
        resolved = Topic.parse(topic) if isinstance(topic, str) else topic
        return list(self._groups.get(resolved, []))

    def delivered_fraction(self, event: Event, topic: Topic | str) -> float:
        """Fraction of ``topic``'s group that delivered ``event``."""
        pids = [p.pid for p in self.group(topic)]
        return delivered_fraction(
            self.harness.tracker, event.event_id, pids
        )

    @property
    def stats(self):
        """Network statistics."""
        return self.harness.stats
