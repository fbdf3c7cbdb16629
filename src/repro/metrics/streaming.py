"""Streaming delivery metrics — O(topics) state for 10⁵–10⁶-process runs.

The full :class:`~repro.metrics.collector.DeliveryTracker` keeps one
``(event, pid) → time`` record per delivery; at §VII scale that is the
figures' raw material, at S=10⁵–10⁶ it *is* the memory wall (a single
publication can deliver to a hundred thousand processes). This module's
:class:`StreamingDeliveryTracker` folds every delivery into per-topic
counters the moment it happens: published events, their expected
receivers and deliveries.

State is **O(topics)**, independent of how many events flow. The price is
losing per-event / per-receiver resolution: queries that need it (the
``receivers`` family) raise :class:`~repro.errors.MetricsError` pointing
back at the full tracker, and first-delivery deduplication is delegated to
the protocol layer (each process's ``seen`` set — or the columnar
backend's per-event bitmasks — already guarantees ``record_delivery`` is
called once per (event, pid), which is the documented contract).
"""

from __future__ import annotations

from repro.core.events import Event, EventId
from repro.errors import MetricsError
from repro.topics.topic import Topic


class TopicDeliveryStats:
    """Aggregate delivery counters for one topic (fixed-size state)."""

    __slots__ = ("topic", "published", "delivered", "expected_sum")

    def __init__(self, topic: Topic):
        self.topic = topic
        self.published = 0
        self.delivered = 0
        self.expected_sum = 0


class StreamingDeliveryTracker:
    """Aggregate delivery tracker with O(topics) memory.

    Recording API is identical to the full tracker
    (:meth:`record_publish` / :meth:`record_delivery`), so processes and
    systems accept either interchangeably; aggregate queries live here and
    per-event queries raise :class:`~repro.errors.MetricsError`.
    """

    #: distinguishes tracker flavours without isinstance checks
    mode = "streaming"

    def __init__(self) -> None:
        self._topics: dict[Topic, TopicDeliveryStats] = {}
        self.events_published = 0
        self.deliveries = 0

    def _stats_for(self, topic: Topic) -> TopicDeliveryStats:
        stats = self._topics.get(topic)
        if stats is None:
            stats = self._topics[topic] = TopicDeliveryStats(topic)
        return stats

    # ------------------------------------------------------------------
    # Recording (same signatures as the full tracker)
    # ------------------------------------------------------------------
    def record_publish(
        self, event: Event, publisher: int, expected: int | None = None
    ) -> None:
        """Fold one publication into its topic's aggregates.

        ``expected`` — the event's intended receivers over a perfect
        network — feeds the delivered-fraction denominators; see the full
        tracker's docstring for the convention.
        """
        self.events_published += 1
        stats = self._stats_for(event.topic)
        stats.published += 1
        if expected is not None:
            stats.expected_sum += expected

    def record_delivery(
        self, pid: int, event: Event, time: float, hops: int | None = None
    ) -> None:
        """Fold one first delivery into its topic's aggregates.

        Unlike the full tracker this cannot deduplicate (event, pid)
        repeats — that set is exactly the O(messages) state streaming mode
        eliminates. The protocol layer already delivers at most once per
        (event, pid) (Fig. 5's RECEIVE ignores later copies), which is the
        recording contract here.
        """
        self.deliveries += 1
        stats = self._topics.get(event.topic)
        if stats is None:
            stats = self._stats_for(event.topic)
        stats.delivered += 1

    # ------------------------------------------------------------------
    # Aggregate queries
    # ------------------------------------------------------------------
    def topics(self) -> list[Topic]:
        """Topics with at least one recorded publish or delivery."""
        return sorted(self._topics)

    def topic_stats(self, topic: Topic) -> TopicDeliveryStats:
        """The aggregates for ``topic`` (fresh zeros if never seen)."""
        stats = self._topics.get(topic)
        return stats if stats is not None else TopicDeliveryStats(topic)

    def delivery_count_by_topic(self, topic: Topic) -> int:
        """Total deliveries recorded for ``topic``."""
        return self.topic_stats(topic).delivered

    def state_size(self) -> int:
        """Number of per-topic aggregate records held — the quantity the
        O(topics) memory bound is asserted on (never grows with events)."""
        return len(self._topics)

    # ------------------------------------------------------------------
    # Per-event API of the full tracker: unsupported, loudly
    # ------------------------------------------------------------------
    def _unsupported(self, query: str) -> MetricsError:
        return MetricsError(
            f"{query} needs per-event state the streaming tracker does not "
            "keep (memory is O(topics), not O(messages)); run with the "
            "full DeliveryTracker (tracker='full') for per-event queries"
        )

    def receivers(self, event_id: EventId):
        raise self._unsupported("receivers()")

    def delivery_count(self, event_id: EventId) -> int:
        raise self._unsupported("delivery_count()")
