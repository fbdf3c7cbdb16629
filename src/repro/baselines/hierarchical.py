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
clusters (fan-out ``log(N)+c2``); [10]'s two constants are both the
system's ``c`` here. On the first reception of an event, a process
forwards it both inside its cluster and across clusters. Memory is
``log(N)+log(m)+c1+c2``; every process still receives every event, so
parasite deliveries remain maximal.
"""

from __future__ import annotations

import random
from array import array
from itertools import groupby
from typing import Any

from repro.baselines.common import BaselineActor, BaselineSystem, Seat
from repro.core.events import Event
from repro.errors import ConfigError
from repro.membership.columnar import ColumnarGroupTables, ColumnarSuperBuilder
from repro.net.message import EventMessage, Scope
from repro.topics.topic import Topic

#: Synthetic parent topic for cluster group identities, and the group of
#: the cross-cluster tables.
CLUSTERS_ROOT = Topic.parse(".cluster")


def cluster_topic(index: int) -> Topic:
    """The synthetic group identity of cluster ``index``."""
    return CLUSTERS_ROOT.child(f"c{index}")


class ClusterActor(BaselineActor):
    """Two-level forwarding: a first reception goes on inside the
    member's cluster and across clusters, whatever level it arrived on."""

    __slots__ = ("cluster_of",)

    def __init__(self, seats, size, harness) -> None:
        super().__init__(seats, size, harness)
        #: pid → its cluster
        self.cluster_of: list[Topic | None] = [None] * size
        for group, pairs in seats.items():
            if group is not CLUSTERS_ROOT:
                for tables, _ in pairs:
                    for pid in tables.members:
                        self.cluster_of[pid] = group

    def relay(self, pid: int, event: Event, group: Topic) -> None:
        self.forward(pid, event, self.cluster_of[pid])
        self.forward(pid, event, CLUSTERS_ROOT)

    def _send(self, pid: int, targets: list[int], event: Event, group: Topic) -> None:
        if group is not CLUSTERS_ROOT:
            super()._send(pid, targets, event, group)
            return
        cluster_of = self.cluster_of
        cluster = cluster_of[pid]
        # One batched multicast per destination cluster (consecutive runs
        # preserve the sampled target order, and with it the RNG draws).
        for destination, run in groupby(targets, key=cluster_of.__getitem__):
            self._network.multicast(
                pid,
                list(run),
                EventMessage(
                    sender=pid,
                    event=event,
                    scope=Scope("inter", cluster, destination),
                ),
            )


class HierarchicalGossipSystem(BaselineSystem):
    """Two-level interest-oblivious gossip broadcast."""

    _actor_class = ClusterActor

    def __init__(self, *, n_clusters: int = 10, **kwargs: Any):
        super().__init__(**kwargs)
        if n_clusters < 1:
            raise ConfigError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = n_clusters

    def _draw_tables(self, rng: random.Random) -> dict[Topic, list[Seat]]:
        """Partition processes into clusters and draw both tables each."""
        pids = list(self._processes)
        n = self.n_clusters
        if len(pids) < n:
            raise ConfigError(
                f"{len(pids)} processes cannot fill {n} clusters"
            )
        rng.shuffle(pids)
        clusters = [(cluster_topic(i), pids[i::n]) for i in range(n)]

        # In-cluster tables: (b+1)·log(m), fan-out log(m)+c — every
        # cluster's rows before any cross row.
        seats = {
            key: [self._draw_group(key, members, rng)]
            for key, members in clusters
        }

        # Cross-cluster tables: (b+1)·log(N) random processes of *other*
        # clusters, fan-out log(N)+c; one outsider row per member.
        cross_capacity = self.params.table_capacity(n)
        cross_fanout = self.params.fanout(n)
        cross = seats[CLUSTERS_ROOT] = []
        for key, members in clusters:
            outsiders = [
                pid
                for other_key, others in clusters
                if other_key != key
                for pid in others
            ]
            if outsiders:
                builder = ColumnarSuperBuilder(outsiders, cross_capacity)
                for _ in members:
                    builder.draw_row(rng)
                tables = builder.tables(CLUSTERS_ROOT, members)
            else:  # one cluster: an empty cross table, nothing to send
                tables = ColumnarGroupTables(
                    CLUSTERS_ROOT, members, cross_capacity, 0, array("l")
                )
            cross.append((tables, cross_fanout))
        return seats

    def _expected_receivers(self, topic: Topic) -> int:
        # Interest-oblivious clusters flood every process (§VI-E): all of
        # them are intended receivers.
        return len(self._processes)

    def _entry_groups(self, pid: int, topic: Topic) -> list[Topic]:
        """At the publisher's cluster, on both levels."""
        return [self._actors[topic].cluster_of[pid], CLUSTERS_ROOT]
