"""DaMulticastSystem — the user-facing facade.

Bundles a :class:`~repro.runtime.SimulationHarness` with process/group
management so applications, examples and experiments can write::

    system = DaMulticastSystem(seed=1, mode="dynamic")
    sensors = system.add_group(".plant.sensors", 50)
    system.run(until=30)                    # let membership converge
    event = system.publish(".plant.sensors", payload={"temp": 21.5})
    system.run(until=40)
    system.delivered_fraction(event, ".plant.sensors")

Two modes mirror the paper's two settings:

* ``mode="static"`` — the §VII simulator: membership tables are drawn once
  from global knowledge by :meth:`finalize_static_membership` and never
  change; no background tasks run, so a publication runs to quiescence.
  Each group is one contiguous pid block, flooded by one
  :class:`~repro.core.process.ColumnarGroupActor` (consecutive
  ``add_process``/``add_group`` calls for a topic extend its block, and
  membership and links are fixed by the finalize); a member is a
  :class:`~repro.core.process.StaticMember` record.
* ``mode="dynamic"`` — the full protocol: joins go through the bootstrap
  overlay, FIND_SUPER_CONTACT floods, tables shuffle and self-repair.
"""

from __future__ import annotations

import functools
import random
from typing import Any

from repro.core.events import Event, EventId
from repro.core.params import DaMulticastConfig
from repro.core.process import (
    ColumnarGroupActor,
    DaMulticastProcess,
    DeliveryCallback,
    GroupSizeCell,
    StaticMember,
)
from repro.errors import ConfigError, UnknownTopic
from repro.failures.model import FailureModel
from repro.membership.columnar import draw_static_tables, rows_digest
from repro.membership.flat import FlatMembershipConfig
from repro.membership.overlay import BootstrapOverlay
from repro.membership.view import ProcessDescriptor
from repro.net.latency import LatencyModel, ZERO_LATENCY
from repro.runtime import ObjectSystemFacade, SimulationHarness
from repro.topics.topic import Topic


class DaMulticastSystem(ObjectSystemFacade):
    """A complete daMulticast deployment on one simulation harness."""

    def __init__(
        self,
        *,
        config: DaMulticastConfig | None = None,
        seed: int = 0,
        p_success: float = 1.0,
        latency: LatencyModel = ZERO_LATENCY,
        failure_model: FailureModel | None = None,
        mode: str = "dynamic",
        overlay_degree: int = 5,
        delivery_callback: DeliveryCallback | None = None,
        harness: SimulationHarness | None = None,
    ):
        if mode not in ("static", "dynamic"):
            raise ConfigError(f"mode must be 'static' or 'dynamic', got {mode!r}")
        self.config = config or DaMulticastConfig()
        self.mode = mode
        #: Fig. 4's bootstrap climbs dotted parents only, so only the
        #: static build draws §VIII's table per linked supertopic
        self._honours_links = mode == "static"
        # A pre-built harness (e.g. the live runtime's wall-clock one) is
        # adopted as-is; the seed/p_success/latency/... knobs then belong
        # to whoever built it.
        super().__init__(
            harness if harness is not None else SimulationHarness(
                seed=seed,
                p_success=p_success,
                latency=latency,
                failure_model=failure_model,
            )
        )
        self.overlay = (
            BootstrapOverlay(overlay_degree) if mode == "dynamic" else None
        )
        #: one live size counter per group, shared with every member
        self._group_size_cells: dict[Topic, GroupSizeCell] = {}
        #: last (b+1)·log S capacity pushed to a group's dynamic views
        self._group_capacities: dict[Topic, int] = {}
        self._delivery_callback = delivery_callback
        #: static mode: topic → the block actor the finalize made for it
        self._actors: dict[Topic, ColumnarGroupActor] = {}
        #: static mode: topic → (failure model, its alive members), kept
        #: only for a model that declares ``static_dead`` (a fixed dead set)
        self._alive_cache: dict[Topic, tuple[FailureModel, list]] = {}
        #: static mode: pid → events it published so far
        self._publish_seq: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def _add_members(
        self,
        topic: Topic,
        count: int,
        *,
        subscribe: bool = True,
        membership_config: FlatMembershipConfig | None = None,
    ) -> list:
        """The body of :meth:`add_process` / :meth:`add_group`.

        In static mode the members extend ``topic``'s pid block (see
        :meth:`_add_static_members`). In dynamic mode each process
        immediately joins: it gets overlay contacts, a same-group
        membership contact when one exists, and its background tasks
        start.

        What every member of a group shares — the group list, the size
        cell, the expected-receiver provider, the harness parts — is
        resolved here, once per call; the loop body is what one member
        costs.
        """
        if self.mode == "static":
            return self._add_static_members(topic, count)
        harness = self.harness
        rngs = harness.rngs
        network = harness.network
        group = self._groups.setdefault(topic, [])
        cell = self._group_size_cells.get(topic)
        if cell is None:
            cell = self._group_size_cells[topic] = GroupSizeCell()
        expected_receivers = functools.partial(self._interested_count, topic)
        created = []
        for _ in range(count):
            pid = harness.next_pid()
            process = DaMulticastProcess(
                pid,
                topic,
                self.config,
                engine=harness.engine,
                network=network,
                rngs=rngs,
                hierarchy=self.hierarchy,
                overlay=self.overlay,
                tracker=harness.tracker,
                delivery_callback=self._delivery_callback,
                membership_config=membership_config,
            )
            network.register(process)
            group.append(process)
            self._processes[pid] = process
            cell.value = len(group)
            process.bind_group_size(cell)
            process.bind_expected_receivers(expected_receivers)
            self._sync_membership_capacity(topic, group, cell.value, process)
            assert self.overlay is not None
            self.overlay.add_process(process.descriptor, rngs.stream("overlay"))
            if subscribe:
                process.subscribe(self._membership_contact_for(process))
            created.append(process)
        return created

    def _add_static_members(self, topic: Topic, count: int) -> list[StaticMember]:
        """Extend ``topic``'s pid block by ``count`` members.

        A group is one contiguous pid block, so its members are added in
        one run of calls: adding to a topic after another topic's members
        is refused.
        """
        groups = self._groups
        if topic in groups and topic is not next(reversed(groups)):
            raise ConfigError(
                f"static group {topic.name} is one contiguous pid block: "
                "add all its members before another topic's"
            )
        block = self.harness.reserve_pid_block(count)
        actors = self._actors
        members = [StaticMember(pid, topic, actors) for pid in block]
        groups.setdefault(topic, []).extend(members)
        self._processes.update(zip(block, members))
        return members

    def _touch(self, topic: Topic | str) -> None:
        """Static membership and links are fixed by the finalize: the block
        actors are laid out once."""
        self.harness.require_open()
        if self.mode == "static" and self._finalized:
            name = topic if isinstance(topic, str) else topic.name
            raise ConfigError(
                f"cannot change {name}: finalize_static_membership() fixed "
                "the static membership"
            )
        super()._touch(topic)

    def _membership_contact_for(
        self, process: DaMulticastProcess
    ) -> ProcessDescriptor | None:
        """A random existing member of the same group, if any."""
        peers = [
            p for p in self._groups[process.topic] if p.pid != process.pid
        ]
        if not peers:
            return None
        chosen = self.harness.rngs.stream("contacts").choice(peers)
        return chosen.descriptor

    def _sync_membership_capacity(
        self,
        topic: Topic,
        members: list[DaMulticastProcess],
        size: int,
        newcomer: DaMulticastProcess,
    ) -> None:
        """Keep dynamic-mode view capacities on the ``(b+1)·log S`` law.

        Replaces the former per-join sweep that re-notified every member
        of the new group size (O(S) per join, O(S²) per bootstrap wave):
        the shared :class:`GroupSizeCell` already publishes the size, so
        only view capacities remain to sync — the newcomer always (its
        view was sized from a default hint), everyone else only when the
        group's table capacity actually changed, which happens O(log S)
        times over a group's growth. Capacities only grow here (group
        lists are append-only), so no eviction draw is ever consumed and
        same-seed trajectories are unchanged.
        """
        capacity = self.config.params_for(topic).table_capacity(max(2, size))
        previous = self._group_capacities.get(topic)
        self._group_capacities[topic] = capacity
        targets = members if previous != capacity else (newcomer,)
        for member in targets:
            view = member.membership.view
            if view.capacity != capacity:
                view.set_capacity(capacity, member.rng)

    # ------------------------------------------------------------------
    # Static-mode membership injection (§VII)
    # ------------------------------------------------------------------
    def finalize_static_membership(self) -> None:
        """Draw all membership tables once, from global knowledge, and lay
        out one block actor per group.

        Reproduces the paper's simulation setting: each topic table is a
        uniform sample of ``(b+1)·log(S)`` group members, each supertopic
        table a uniform sample of ``z`` members of the nearest populated
        supergroup — one table per direct supertopic when :meth:`link`
        gave a topic several (§VIII). Tables never change afterwards, and
        neither do the groups: a finalize is the last change. Each group
        is drawn as pid columns (:func:`~repro.membership.columnar.
        draw_static_tables`) and registered as one
        :class:`~repro.core.process.ColumnarGroupActor` over its pid block.
        """
        if self.mode != "static":
            raise ConfigError("finalize_static_membership requires mode='static'")
        rng = self._membership_rng()
        if self._finalized:
            raise ConfigError("membership already finalized")
        if not self._groups:
            raise ConfigError("no groups added")
        blocks = {
            topic: range(members[0].pid, members[-1].pid + 1)
            for topic, members in self._groups.items()
        }
        drawn = draw_static_tables(
            blocks, self.config.params_for, rng, self.hierarchy
        )
        harness = self.harness
        for topic, tables in drawn.items():
            members = self._groups[topic]
            actor = ColumnarGroupActor(
                tables,
                self.config.params_for(topic),
                self.hierarchy,
                engine=harness.engine,
                network=harness.network,
                rngs=harness.rngs,
                tracker=harness.tracker,
                streams=self._row_streams(topic, len(members)),
                members=members,
                callback=self._delivery_callback,
            )
            block = blocks[topic]
            harness.network.register_block(actor, block.start, block.stop)
            self._actors[topic] = actor
        self._finalized = True

    def _row_streams(
        self, topic: Topic, size: int
    ) -> list[random.Random | None]:
        """Each member's selection stream, by row: empty, so that the
        actor seeds a member's ``process/{pid}`` stream on its first
        action."""
        return [None] * size

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        topic: Topic | str,
        payload: Any = None,
        *,
        publisher: Any = None,
    ) -> Event:
        """Publish an event on ``topic``.

        ``publisher`` defaults to a uniformly chosen *alive* member of the
        topic's group (the §VII setting publishes from an alive process);
        a given one must be a member of that group — a process publishes
        events of its own topic only.
        """
        if self.mode == "static":
            self._require_finalized()
        else:
            self.harness.require_open()
        resolved = Topic.parse(topic) if isinstance(topic, str) else topic
        if publisher is not None and publisher.topic != resolved:
            raise ConfigError(
                f"process {publisher.pid} publishes {publisher.topic.name} "
                f"events, not {resolved.name}"
            )
        if self.mode == "dynamic":
            return self._publisher(resolved, publisher).publish(payload)
        actor = self.group_actor(resolved)
        if publisher is None:
            publisher = self._elect_publisher(
                resolved, self._alive_members(resolved)
            )
        pid = publisher.pid
        sequence = self._publish_seq[pid] = self._publish_seq.get(pid, 0) + 1
        event = Event(
            event_id=EventId(pid, sequence),
            topic=resolved,
            payload=payload,
            published_at=self.now,
        )
        self.tracker.record_publish(
            event, pid, expected=self._interested_count(resolved)
        )
        actor.publish_from(pid - actor.base, event)
        return event

    def _alive_members(self, topic: Topic) -> list[StaticMember]:
        """``topic``'s members alive now: computed per publish unless the
        installed failure model declares a fixed dead set."""
        model = self.network.failure_model
        cached = self._alive_cache.get(topic)
        if cached is not None and cached[0] is model:
            return cached[1]
        is_alive = self.harness.is_alive
        alive = [member for member in self._groups[topic] if is_alive(member.pid)]
        if getattr(model, "static_dead", None) is not None:
            self._alive_cache[topic] = (model, alive)
        return alive

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _interested_count(self, topic: Topic) -> int:
        """Processes whose subscription *includes* events of ``topic`` —
        its own group plus every supergroup (inclusion, §III-B, over the
        hierarchy's links too): the intended receivers of a ``topic`` event
        over a perfect network. Live count (consulted at publish time via
        :meth:`DaMulticastProcess.bind_expected_receivers`)."""
        includes = self.hierarchy.includes
        return sum(
            len(members)
            for t, members in self._groups.items()
            if includes(t, topic)
        )

    def group_actor(self, topic: Topic | str) -> ColumnarGroupActor:
        """The block actor running ``topic``'s static group."""
        resolved = Topic.parse(topic) if isinstance(topic, str) else topic
        try:
            return self._actors[resolved]
        except KeyError:
            raise UnknownTopic(f"no group for topic {resolved.name}") from None

    def membership_bytes(self) -> int:
        """Total frozen membership bytes across every group's columns."""
        return sum(actor.membership_bytes() for actor in self._actors.values())

    def construction_digest(self) -> str:
        """SHA-256 over every member's table rows, in pid order
        (:func:`~repro.membership.columnar.rows_digest`), pinned by the
        S=500 golden in tests/test_golden_static.py."""
        if not self._finalized:
            raise ConfigError("finalize_static_membership() first")
        return rows_digest(
            (actor.tables, row)
            for actor in self._actors.values()
            for row in range(actor.tables.size)
        )

    def close(self) -> None:
        """Release every member and block actor (idempotent)."""
        self._actors.clear()
        self._alive_cache.clear()
        super().close()
