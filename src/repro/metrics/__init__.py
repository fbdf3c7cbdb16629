"""Measurement layer: delivery tracking, reliability and report tables.

Metrics are computed from observable behaviour only — network counters
(:class:`repro.net.stats.NetworkStats`) and application-level deliveries
(:class:`~repro.metrics.collector.DeliveryTracker`) — so daMulticast and
the baselines are measured identically and none can cheat by reporting its
own internals.
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "repro.metrics.collector": ("DeliveryTracker",),
        "repro.metrics.degradation": (
            "WindowPoint",
            "delivery_ratio_series",
            "degradation_summary",
        ),
        "repro.metrics.delivery": ("delivered_fraction", "parasite_deliveries"),
        "repro.metrics.streaming": ("StreamingDeliveryTracker", "TopicDeliveryStats"),
        "repro.metrics.report": ("Table",),
    },
)
