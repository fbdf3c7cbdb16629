"""Measurement layer: delivery tracking, reliability and report tables.

Metrics are computed from observable behaviour only — network counters
(:class:`repro.net.stats.NetworkStats`) and application-level deliveries
(:class:`~repro.metrics.collector.DeliveryTracker`) — so daMulticast and
the baselines are measured identically and none can cheat by reporting its
own internals.
"""

from repro.metrics.collector import DeliveryTracker
from repro.metrics.degradation import (
    WindowPoint,
    degradation_summary,
    delivery_ratio_series,
    time_to_repair,
)
from repro.metrics.delivery import (
    delivered_fraction,
    all_received,
    parasite_deliveries,
    topic_delivery_summary,
)
from repro.metrics.streaming import StreamingDeliveryTracker, TopicDeliveryStats
from repro.metrics.report import Table, format_series

__all__ = [
    "DeliveryTracker",
    "StreamingDeliveryTracker",
    "TopicDeliveryStats",
    "delivered_fraction",
    "all_received",
    "parasite_deliveries",
    "topic_delivery_summary",
    "WindowPoint",
    "delivery_ratio_series",
    "time_to_repair",
    "degradation_summary",
    "Table",
    "format_series",
]
