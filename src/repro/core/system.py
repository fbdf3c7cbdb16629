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
* ``mode="dynamic"`` — the full protocol: joins go through the bootstrap
  overlay, FIND_SUPER_CONTACT floods, tables shuffle and self-repair.
"""

from __future__ import annotations

import functools
from typing import Any

from repro.core.events import Event
from repro.core.params import DaMulticastConfig
from repro.core.process import (
    DaMulticastProcess,
    DeliveryCallback,
    GroupSizeCell,
    StaticProcess,
)
from repro.errors import ConfigError
from repro.failures.model import FailureModel
from repro.membership.columnar import draw_static_tables, rows_digest
from repro.membership.flat import FlatMembershipConfig
from repro.membership.overlay import BootstrapOverlay
from repro.membership.view import ProcessDescriptor
from repro.net.latency import LatencyModel, ZERO_LATENCY
from repro.net.message import Scope
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
    ) -> list[DaMulticastProcess]:
        """The body of :meth:`add_process` / :meth:`add_group`.

        In dynamic mode each process immediately joins: it gets overlay
        contacts, a same-group membership contact when one exists, and its
        background tasks start. In static mode it stays inert until
        :meth:`finalize_static_membership` — it is handed the stream
        registry, not a stream, and seeds its own on first action.

        What every member of a group shares — the group list, the size
        cell, the expected-receiver provider, a static group's intra
        scope, the harness parts — is resolved here, once per call; the
        loop body is what one member costs.
        """
        dynamic = self.mode == "dynamic"
        # a static member is a row of its group's columns
        make_process = DaMulticastProcess if dynamic else StaticProcess
        harness = self.harness
        rngs = harness.rngs
        network = harness.network
        group = self._groups.setdefault(topic, [])
        cell = self._group_size_cells.get(topic)
        if cell is None:
            cell = self._group_size_cells[topic] = GroupSizeCell()
        expected_receivers = functools.partial(self._interested_count, topic)
        intra_scope = Scope("intra", topic)
        created = []
        for _ in range(count):
            pid = harness.next_pid()
            process = make_process(
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
                group_size_hint=None,
            )
            network.register(process)
            group.append(process)
            self._processes[pid] = process
            cell.value = len(group)
            process.bind_group_size(cell)
            process.bind_expected_receivers(expected_receivers)
            if dynamic:
                self._sync_membership_capacity(topic, group, cell.value, process)
                assert self.overlay is not None
                self.overlay.add_process(
                    process.descriptor, rngs.stream("overlay")
                )
                if subscribe:
                    process.subscribe(self._membership_contact_for(process))
            else:
                process.intra_scope = intra_scope
                if subscribe:
                    process.subscribe()
            created.append(process)
        return created

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
            membership = member.membership
            if membership is not None and membership.view.capacity != capacity:
                membership.view.set_capacity(capacity, member.rng)

    # ------------------------------------------------------------------
    # Static-mode membership injection (§VII)
    # ------------------------------------------------------------------
    def finalize_static_membership(self) -> None:
        """Draw all membership tables once, from global knowledge.

        Reproduces the paper's simulation setting: each topic table is a
        uniform sample of ``(b+1)·log(S)`` group members, each supertopic
        table a uniform sample of ``z`` members of the nearest populated
        supergroup — one table per direct supertopic when :meth:`link`
        gave a topic several (§VIII). Tables never change afterwards. Each
        group is drawn as pid columns (:func:`~repro.membership.columnar.
        draw_static_tables`, the columnar host's build) and every member
        is seated at its row.
        """
        if self.mode != "static":
            raise ConfigError("finalize_static_membership requires mode='static'")
        rng = self._membership_rng()
        groups = self._groups
        drawn = draw_static_tables(
            {topic: [p.pid for p in members] for topic, members in groups.items()},
            self.config.params_for,
            rng,
            self.hierarchy,
        )
        for topic, tables in drawn.items():
            for row, process in enumerate(groups[topic]):
                process.seat(tables, row)
        self._finalized = True

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        topic: Topic | str,
        payload: Any = None,
        *,
        publisher: DaMulticastProcess | None = None,
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
        return self._publisher(resolved, publisher).publish(payload)

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

    def construction_digest(self) -> str:
        """SHA-256 over every process's table rows, in pid order — the
        columnar host's digest (:func:`~repro.membership.columnar.
        rows_digest`), pinned by the S=500 golden in
        tests/test_golden_static.py."""
        if not self._finalized:
            raise ConfigError("finalize_static_membership() first")
        return rows_digest((p.tables, p.row) for p in self._processes.values())
