"""Baseline (a): gossip-based broadcast.

"Each time an event must be sent, it is broadcast in the entire system"
(§VI-E). One global gossip group contains every process regardless of
interest; tables have size ``(b+1)·log(n)`` and fan-out is ``log(n)+c``
with ``n`` the total system size.

Consequences measured by ``repro compare``: message complexity
``O(n·log n)`` instead of ``O(S_Tmax·log S_Tmax)``, reliability
``e^{-e^{-c}}`` over the *whole* system, and maximal parasite deliveries —
every process receives every event, interested or not.
"""

from __future__ import annotations

import random

from repro.baselines.common import BaselineSystem, Seat
from repro.topics.topic import Topic

#: Synthetic group identity for "the entire system".
GLOBAL_GROUP = Topic.parse(".broadcast-all")


class GossipBroadcastSystem(BaselineSystem):
    """One global infect-and-die gossip group over all processes."""

    def _draw_tables(self, rng: random.Random) -> dict[Topic, list[Seat]]:
        """Each process's single global table of size ``(b+1)·log(n)``."""
        return {GLOBAL_GROUP: [self._draw_group(GLOBAL_GROUP, list(self._processes), rng)]}

    def _expected_receivers(self, topic: Topic) -> int:
        # Broadcast floods the global group: every process is an intended
        # receiver (interested or not) — the parasite cost made measurable.
        return len(self._processes)

    def _entry_groups(self, pid: int, topic: Topic) -> list[Topic]:
        return [GLOBAL_GROUP]
