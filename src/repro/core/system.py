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
  It is the one static build of :class:`~repro.runtime.ObjectSystemFacade`
  (pid-block :class:`~repro.runtime.StaticMember` records, membership and
  links fixed by the finalize); what daMulticast adds is its table draw
  and one :class:`~repro.core.group_actor.ColumnarGroupActor` per group.
* ``mode="dynamic"`` — the full protocol: joins go through the bootstrap
  overlay, FIND_SUPER_CONTACT floods, tables shuffle and self-repair. The
  processes are one :class:`~repro.core.process.ProcessBlock` on the
  network, grown per join; a join whose pid does not extend it is a
  :class:`~repro.errors.ConfigError`.

Both modes publish through the facade's one ``publish``: it elects or
checks the publisher, mints the event id and records the publication,
and Fig. 7 at the publisher runs in the block actor holding it — its
group's (static) or the processes' one block (dynamic) — through the one
kernel, :func:`~repro.core.group_actor.forward`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.core.events import DeliveryCallback, Event
from repro.core.group_actor import ColumnarGroupActor
from repro.core.params import DaMulticastConfig
from repro.errors import ConfigError, UnknownTopic
from repro.failures.model import FailureModel
from repro.membership.columnar import draw_static_tables, rows_digest
from repro.net.latency import LatencyModel, ZERO_LATENCY
from repro.runtime import ObjectSystemFacade, SimulationHarness
from repro.topics.topic import Topic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.process import DaMulticastProcess, GroupSizeCell
    from repro.membership.view import ProcessDescriptor


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
        #: the dynamic protocol never finalizes: its members publish
        #: from their join on
        self._finalize_before_publish = mode == "static"
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
        self.overlay = None
        #: one live size counter per group, shared with every member
        self._group_size_cells: dict[Topic, GroupSizeCell] = {}
        #: last (b+1)·log S capacity pushed to a group's dynamic views
        self._group_capacities: dict[Topic, int] = {}
        self._delivery_callback = delivery_callback
        #: the dynamic processes' one block actor, over ``_processes``
        #: (registered with the first join)
        self._block = None
        if mode == "dynamic":
            # the dynamic protocol's modules load with its first system:
            # a static run never imports them
            from repro.membership.overlay import BootstrapOverlay

            self.overlay = BootstrapOverlay(overlay_degree)

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def _add_members(
        self, topic: Topic, count: int, *, subscribe: bool = True
    ) -> list:
        """The body of :meth:`add_process` / :meth:`add_group`.

        In static mode the members extend ``topic``'s pid block (the
        shared static build's records). In dynamic mode each process
        immediately joins: it gets overlay contacts, a same-group
        membership contact unless ``subscribe`` is False, and its
        background tasks start.

        What every member of a group shares — the group list, the size
        cell, the harness parts — is resolved here, once per call; the
        loop body is what one member costs.
        """
        if self.mode == "static":
            if not subscribe:
                raise ConfigError(
                    "subscribe=False needs mode='dynamic': a static member "
                    "is in its group's tables from the finalize on"
                )
            return super()._add_members(topic, count)
        from repro.core.process import DaMulticastProcess, GroupSizeCell, ProcessBlock

        harness = self.harness
        rngs = harness.rngs
        network = harness.network
        processes = self._processes
        group = self._groups.setdefault(topic, [])
        cell = self._group_size_cells.get(topic)
        if cell is None:
            cell = self._group_size_cells[topic] = GroupSizeCell()
        created = []
        for _ in range(count):
            pid = harness.next_pid()
            start = next(iter(processes), pid)
            if pid != start + len(processes):
                raise ConfigError(
                    f"process {pid} does not extend this system's pid block "
                    f"[{start}, {start + len(processes)}): another system on "
                    "its harness took the pids between"
                )
            if processes:
                network.extend_block(self._block, pid + 1)
            else:
                self._block = ProcessBlock(processes, pid)
                network.register_block(self._block, pid, pid + 1)
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
                group_size=cell,
                delivery_callback=self._delivery_callback,
            )
            group.append(process)
            processes[pid] = process
            cell.value = len(group)
            self._sync_membership_capacity(topic, group, cell.value, process)
            assert self.overlay is not None
            self.overlay.add_process(process.descriptor, rngs.stream("overlay"))
            if subscribe:
                process.subscribe(self._membership_contact_for(process))
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
            view = member.membership.view
            if view.capacity != capacity:
                view.set_capacity(capacity, member.rng)

    # ------------------------------------------------------------------
    # Static-mode membership injection (§VII)
    # ------------------------------------------------------------------
    def finalize_static_membership(self) -> None:
        """The static build's one finalize (static mode only)."""
        if self.mode != "static":
            raise ConfigError("finalize_static_membership requires mode='static'")
        super().finalize_static_membership()

    def _lay_out(self, rng: random.Random) -> None:
        """Draw every group's tables and register one block actor per
        group.

        Reproduces the paper's simulation setting: each topic table is a
        uniform sample of ``(b+1)·log(S)`` group members, each supertopic
        table a uniform sample of ``z`` members of the nearest populated
        supergroup — one table per direct supertopic when :meth:`link`
        gave a topic several (§VIII). Each group is drawn as pid columns
        (:func:`~repro.membership.columnar.draw_static_tables`) and
        registered as one :class:`~repro.core.group_actor.ColumnarGroupActor`
        over its pid block.
        """
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
    def _inject(self, pid: int, event: Event) -> None:
        """Fig. 7 at the publisher, run by the block actor holding it: its
        group's in static mode, the processes' one block in dynamic
        mode."""
        actor = self._block or self._actors[event.topic]
        actor.publish_from(pid - actor.base, event)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _static_actors(self) -> dict[Topic, ColumnarGroupActor]:
        """The groups' block actors, for the queries only a finalized
        static build can answer: a dynamic system's processes hold their
        own tables, and before the finalize no group has an actor."""
        if self.mode != "static":
            raise ConfigError(
                f"mode={self.mode!r} has no static groups: this query needs "
                "mode='static'"
            )
        if not self._finalized:
            raise ConfigError("finalize_static_membership() first")
        return self._actors

    def group_actor(self, topic: Topic | str) -> ColumnarGroupActor:
        """The block actor running ``topic``'s static group."""
        actors = self._static_actors()
        resolved = Topic.parse(topic) if isinstance(topic, str) else topic
        try:
            return actors[resolved]
        except KeyError:
            raise UnknownTopic(f"no group for topic {resolved.name}") from None

    def membership_bytes(self) -> int:
        """Total frozen membership bytes across every group's columns."""
        return sum(actor.membership_bytes() for actor in self._static_actors().values())

    def construction_digest(self) -> str:
        """SHA-256 over every member's table rows, in pid order
        (:func:`~repro.membership.columnar.rows_digest`), pinned by the
        S=500 golden in tests/test_golden_static.py."""
        return rows_digest(
            (actor.tables, row)
            for actor in self._static_actors().values()
            for row in range(actor.tables.size)
        )
