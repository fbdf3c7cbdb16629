"""The paper's three comparison algorithms (§VI-E).

All baselines run on the same substrate as daMulticast — same engine,
network, failure models and statically drawn membership tables ("for
fairness, all approaches use the same underlying membership algorithm") —
and are measured by the same metrics layer:

* :class:`~repro.baselines.broadcast.GossipBroadcastSystem` — approach
  (a): every event is gossiped through one system-wide group; every
  process receives everything (maximal parasite messages), tables of size
  ``(b+1)·log(n)``.
* :class:`~repro.baselines.multicast.GossipMulticastSystem` — approach
  (b): one gossip group per topic; a subscriber of ``Ta`` joins the groups
  of ``Ta`` *and every subtopic* (§IV-A pattern 1), paying up to ``t``
  membership tables but receiving no parasite events.
* :class:`~repro.baselines.hierarchical.HierarchicalGossipSystem` —
  approach (c): the two-level hierarchical scheme of [10]; processes are
  partitioned into ``N`` interest-oblivious clusters of size ``m``, events
  gossip inside the cluster and across clusters, giving
  ``log(N)+log(m)+c1+c2`` memory but, again, parasite messages everywhere.

Beside them, :class:`~repro.baselines.naive_publisher.NaivePublisherSystem`
is §IV-A's pattern (2) strawman. All four are the one static build of
:class:`~repro.runtime.ObjectSystemFacade`, flooded by one
:class:`~repro.baselines.common.BaselineActor` over every pid.
"""

from repro.baselines.broadcast import GossipBroadcastSystem
from repro.baselines.common import BaselineActor, BaselineSystem
from repro.baselines.hierarchical import HierarchicalGossipSystem
from repro.baselines.multicast import GossipMulticastSystem
from repro.baselines.naive_publisher import NaivePublisherSystem

__all__ = [
    "BaselineActor",
    "BaselineSystem",
    "GossipBroadcastSystem",
    "GossipMulticastSystem",
    "HierarchicalGossipSystem",
    "NaivePublisherSystem",
]
