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

import math
from itertools import groupby
from typing import Any

from repro.baselines.common import BaselineProcess, BaselineSystem
from repro.core.events import Event
from repro.errors import ConfigError
from repro.membership.static import GroupSampler, GroupTableBuilder
from repro.membership.view import ProcessDescriptor
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
        targets = state.view.sample(state.fanout, self.rng, exclude=(self.pid,))
        assert self.cluster is not None
        # One batched multicast per destination cluster (consecutive runs
        # preserve the sampled target order, and with it the RNG draws).
        for destination, run in groupby(targets, key=lambda d: d.topic):
            self.multicast(
                [descriptor.pid for descriptor in run],
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
        #: cross-cluster fan-out constant c2 (defaults to c1 = self.c)
        self.c2 = self.c if c2 is None else c2
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
        for index, process in enumerate(shuffled):
            key = cluster_keys[index % self.n_clusters]
            self._clusters[key].append(process)  # type: ignore[arg-type]
            process.cluster = key  # type: ignore[attr-defined]
            process.groups.clear()  # a re-draw may move it to another cluster

        # In-cluster tables: (b+1)·log(m), fan-out log(m)+c1. One shared
        # build context per cluster (draw-identical to the former
        # per-member exclusion lists).
        for key, members in self._clusters.items():
            size = len(members)
            capacity = self.table_capacity(size)
            fanout = self.fanout(size)
            descriptors = [ProcessDescriptor(p.pid, key) for p in members]
            builder = GroupTableBuilder(descriptors)
            for index, process in enumerate(members):
                view = builder.table_at(index, capacity, rng)
                process.join_group(key, view, fanout)

        # Cross-cluster tables: (b+1)·log(N) random processes of *other*
        # clusters, fan-out log(N)+c2; one shared sampler per cluster's
        # outsider population.
        n = self.n_clusters
        cross_capacity = self.table_capacity(n)
        log_term = math.log(n, self.log_base) if n > 1 else 0.0
        cross_fanout = max(1, math.ceil(log_term + self.c2))
        for key, members in self._clusters.items():
            outsiders = GroupSampler(
                [
                    ProcessDescriptor(p.pid, other_key)
                    for other_key, others in self._clusters.items()
                    if other_key != key
                    for p in others
                ]
            )
            for process in members:
                view = outsiders.table(cross_capacity, rng)
                process.join_group(CLUSTERS_ROOT, view, cross_fanout)
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

    def clusters(self) -> dict[Topic, list[HierarchicalProcess]]:
        """The cluster partition (after finalization)."""
        return {key: list(members) for key, members in self._clusters.items()}
