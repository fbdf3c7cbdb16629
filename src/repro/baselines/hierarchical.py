"""Baseline (c): hierarchical gossip-based broadcast (two-level, per [10]).

"The basic idea is to create small subgroups (that do not depend on the
interests of the processes in each group) and connect these groups to
reduce the overall memory complexity. The system is split in two levels.
The first level contains groups of processes that exchange events between
them (intra group events). The second level is responsible for propagating
the events between the groups." (§VI-E)

Concretely: all processes are partitioned into ``N`` interest-oblivious
clusters of roughly ``m = n/N`` processes. Each process keeps two tables —
an in-cluster table of size ``(b+1)·log(m)`` (fan-out ``log(m)+c1``) and a
cross-cluster table of size ``(b+1)·log(N)`` holding processes of *other*
clusters (fan-out ``log(N)+c2``). On the first reception of an event, a
process forwards it both inside its cluster and across clusters. Memory is
``log(N)+log(m)+c1+c2``; every process still receives every event, so
parasite deliveries remain maximal.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from itertools import groupby
from typing import Any, Mapping

from repro.baselines.common import BaselineProcess, BaselineSystem
from repro.core.events import Event
from repro.errors import ConfigError
from repro.membership.columnar import ColumnarGroupTables, ColumnarSuperBuilder
from repro.net.message import EventMessage, Scope
from repro.topics.topic import Topic
from repro.validation import check_finite

#: Synthetic parent topic for cluster group identities.
CLUSTERS_ROOT = Topic.parse(".cluster")


def cluster_topic(index: int) -> Topic:
    """The synthetic group identity of cluster ``index``."""
    return CLUSTERS_ROOT.child(f"c{index}")


class HierarchicalProcess(BaselineProcess):
    """A process with an in-cluster and a cross-cluster table."""

    def __init__(self, pid: int, interest: Topic, harness) -> None:
        super().__init__(pid, interest, harness)
        self.cluster: Topic | None = None
        #: pid -> cluster, the system's one map (set at finalize)
        self.cluster_of: Mapping[int, Topic] | None = None

    def _on_first_reception(self, event: Event, scope: Scope) -> None:
        # Two-level forwarding: inside our own cluster, and across clusters
        # — regardless of which level the event arrived on.
        assert self.cluster is not None
        self._forward(event, self.cluster)
        self._forward_cross_cluster(event)

    def _forward_cross_cluster(self, event: Event) -> None:
        state = self.groups.get(CLUSTERS_ROOT)
        if state is None:
            return
        targets = state.tables.sample_row(state.row, state.fanout, self.rng)
        assert self.cluster is not None and self.cluster_of is not None
        # One batched multicast per destination cluster (consecutive runs
        # preserve the sampled target order, and with it the RNG draws).
        for destination, run in groupby(targets, key=self.cluster_of.__getitem__):
            self.multicast(
                list(run),
                EventMessage(
                    sender=self.pid,
                    event=event,
                    scope=Scope("inter", self.cluster, destination),
                ),
            )


class HierarchicalGossipSystem(BaselineSystem):
    """Two-level interest-oblivious gossip broadcast."""

    _process_class = HierarchicalProcess

    def __init__(
        self,
        *,
        n_clusters: int = 10,
        c2: float | None = None,
        **kwargs: Any,
    ):
        super().__init__(**kwargs)
        if n_clusters < 1:
            raise ConfigError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = n_clusters
        if c2 is not None:
            check_finite(c2, "c2")
        #: the cross-cluster level's constants: c2 in place of c1 (the
        #: default is c1)
        self.cross_params = (
            self.params if c2 is None else replace(self.params, c=c2)
        )
        self._clusters: dict[Topic, list[HierarchicalProcess]] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def finalize_membership(self) -> None:
        """Partition processes into clusters and draw both tables each."""
        rng = self._membership_rng()
        processes = list(self.processes)
        if len(processes) < self.n_clusters:
            raise ConfigError(
                f"{len(processes)} processes cannot fill "
                f"{self.n_clusters} clusters"
            )
        shuffled = processes[:]
        rng.shuffle(shuffled)
        self._clusters = {
            cluster_topic(i): [] for i in range(self.n_clusters)
        }
        cluster_keys = list(self._clusters)
        cluster_of: dict[int, Topic] = {}
        for index, process in enumerate(shuffled):
            key = cluster_keys[index % self.n_clusters]
            self._clusters[key].append(process)  # type: ignore[arg-type]
            cluster_of[process.pid] = key
            process.cluster = key  # type: ignore[attr-defined]
            process.cluster_of = cluster_of  # type: ignore[attr-defined]
            process.groups.clear()  # a re-draw may move it to another cluster

        # In-cluster tables: (b+1)·log(m), fan-out log(m)+c1 — every
        # cluster's rows before any cross row.
        for key, members in self._clusters.items():
            self._draw_group(key, members, rng)

        # Cross-cluster tables: (b+1)·log(N) random processes of *other*
        # clusters, fan-out log(N)+c2; one outsider row per member.
        n = self.n_clusters
        cross_capacity = self.params.table_capacity(n)
        cross_fanout = self.cross_params.fanout(n)
        for key, members in self._clusters.items():
            pids = [p.pid for p in members]
            outsiders = [
                p.pid
                for other_key, others in self._clusters.items()
                if other_key != key
                for p in others
            ]
            if outsiders:
                builder = ColumnarSuperBuilder(outsiders, cross_capacity)
                for _ in members:
                    builder.draw_row(rng)
                tables = builder.tables(CLUSTERS_ROOT, pids)
            else:  # one cluster: an empty cross table, nothing to send
                tables = ColumnarGroupTables(
                    CLUSTERS_ROOT, pids, cross_capacity, 0, array("l")
                )
            for row, process in enumerate(members):
                process.join_group(CLUSTERS_ROOT, tables, row, cross_fanout)
        self._finalized = True

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def _expected(self, topic: Topic) -> int:
        # Interest-oblivious clusters flood every process (§VI-E): all of
        # them are intended receivers.
        return len(self._processes)

    def _inject(self, publisher: BaselineProcess, event: Event) -> None:
        """At the publisher's cluster, on both levels."""
        assert isinstance(publisher, HierarchicalProcess)
        assert publisher.cluster is not None
        publisher.publish_in_groups(event, [publisher.cluster])
        publisher._forward_cross_cluster(event)
