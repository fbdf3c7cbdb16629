"""Delivery tracking: who received which event, and when.

The reliability figures (Figs. 10–11) need, per event and per group, the
fraction of processes that received the event; §VI-D's "reliability" is the
probability that *every* interested process receives it. The tracker
records the raw (event, pid, time) triples and the queries in
:mod:`repro.metrics.delivery` aggregate them.
"""

from __future__ import annotations

from collections import defaultdict
from types import MappingProxyType
from typing import Mapping

from repro.core.events import Event, EventId

#: shared empty read-only mapping for unknown event ids
_NO_RECEIVERS: Mapping[int, float] = MappingProxyType({})


class DeliveryTracker:
    """Records publishes and application-level deliveries."""

    def __init__(self) -> None:
        self._published: dict[EventId, Event] = {}
        self._receivers: dict[EventId, dict[int, float]] = defaultdict(dict)
        self._hops: dict[EventId, dict[int, int]] = defaultdict(dict)
        self._expected: dict[EventId, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_publish(
        self, event: Event, publisher: int, expected: int | None = None
    ) -> None:
        """Note that ``publisher`` published ``event``.

        ``expected`` optionally records the event's *intended receivers*:
        how many processes the protocol would deliver it to over a perfect
        network (for daMulticast, the topic's subscribers plus every
        supergroup's by inclusion; for flooding baselines, everyone). It
        is the denominator the graceful-degradation queries
        (:mod:`repro.metrics.degradation`) normalize delivered counts by,
        so a fault-free run scores 1.0 by construction. The one in-repo
        publish path (:meth:`repro.runtime.ObjectSystemFacade.publish`)
        supplies it; trackers fed by external actors may leave it None,
        in which case the event is excluded from ratio denominators.
        """
        self._published[event.event_id] = event
        if expected is not None:
            self._expected[event.event_id] = expected

    def record_delivery(
        self, pid: int, event: Event, time: float, hops: int | None = None
    ) -> None:
        """Note that ``pid`` delivered ``event`` to its application.

        Only the first delivery per (event, pid) is kept — redundant gossip
        receptions are deduplicated at the protocol layer anyway. ``hops``
        optionally records the transmission count of the delivering copy
        (0 for the publisher itself).
        """
        receivers = self._receivers[event.event_id]
        if pid not in receivers:
            receivers[pid] = time
            if hops is not None:
                self._hops[event.event_id][pid] = hops

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def events(self) -> list[Event]:
        """All recorded events, in publish order."""
        return list(self._published.values())

    def expected(self, event_id: EventId) -> int | None:
        """Subscribers of the event's topic at publish time (if recorded)."""
        return self._expected.get(event_id)

    def receivers(self, event_id: EventId) -> Mapping[int, float]:
        """pid → first-delivery time for ``event_id``.

        Returns a *read-only view* of the live per-event dict — O(1), no
        copy. The historical ``dict(...)`` copy made every reliability
        query O(deliveries) per call (``delivered_fraction`` probes ``pid
        in receivers`` per group member, and paid a full copy first);
        membership tests against the view hit the underlying dict
        directly. Callers needing a snapshot that survives later
        deliveries should copy explicitly.
        """
        receivers = self._receivers.get(event_id)
        return _NO_RECEIVERS if receivers is None else MappingProxyType(receivers)

    def delivery_count(self, event_id: EventId) -> int:
        """Number of distinct processes that delivered ``event_id``."""
        return len(self._receivers.get(event_id, {}))

    def delivery_hops(self, event_id: EventId) -> dict[int, int]:
        """pid → hop count of the first-delivered copy (where recorded)."""
        return dict(self._hops.get(event_id, {}))
