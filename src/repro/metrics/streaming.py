"""Streaming delivery metrics — O(topics) state for 10⁵–10⁶-process runs.

The full :class:`~repro.metrics.collector.DeliveryTracker` keeps one
``(event, pid) → time`` record per delivery; at §VII scale that is the
figures' raw material, at S=10⁵–10⁶ it *is* the memory wall (a single
publication can deliver to a hundred thousand processes). This module's
:class:`StreamingDeliveryTracker` folds every delivery into per-topic
aggregates the moment it happens:

* delivered / published counters,
* latency sum, min, max and a fixed 64-bucket geometric histogram
  (power-of-two bucket edges via ``math.frexp``) supporting approximate
  percentiles,
* hop-count sum and max.

State is **O(topics)**, independent of how many events flow. The price is
losing per-event / per-receiver resolution: queries that need it (the
``receivers`` family) raise :class:`~repro.errors.MetricsError` pointing
back at the full tracker, and first-delivery deduplication is delegated to
the protocol layer (each process's ``seen`` set — or the columnar
backend's per-event bitmasks — already guarantees ``record_delivery`` is
called once per (event, pid), which is the documented contract).

Latency needs no per-event state because every
:class:`~repro.core.events.Event` carries its ``published_at`` timestamp:
``time - event.published_at`` is computed at recording time and only the
aggregate survives.
"""

from __future__ import annotations

import math

from repro.core.events import Event, EventId
from repro.errors import MetricsError
from repro.topics.topic import Topic
from repro.validation import check_window

#: histogram buckets: [0] for latency <= 0, then one per power-of-two
#: magnitude, clamped at both ends
_BUCKETS = 64
#: bucket index offset: latencies around 2**-31 land in bucket 1
_EXP_OFFSET = 32


def _latency_bucket(latency: float) -> int:
    """The histogram bucket of ``latency`` (power-of-two edges)."""
    if latency <= 0.0:
        return 0
    exponent = math.frexp(latency)[1]  # latency in [2**(e-1), 2**e)
    return min(_BUCKETS - 1, max(1, exponent + _EXP_OFFSET))


def _bucket_upper_bound(bucket: int) -> float:
    """The inclusive upper latency edge of ``bucket``."""
    if bucket == 0:
        return 0.0
    return 2.0 ** (bucket - _EXP_OFFSET)


class TopicDeliveryStats:
    """Aggregate delivery counters for one topic (fixed-size state)."""

    __slots__ = (
        "topic", "published", "delivered", "expected_sum", "latency_sum",
        "latency_min", "latency_max", "hops_sum", "hops_max", "hops_count",
        "histogram",
    )

    def __init__(self, topic: Topic):
        self.topic = topic
        self.published = 0
        self.delivered = 0
        self.expected_sum = 0
        self.latency_sum = 0.0
        self.latency_min = math.inf
        self.latency_max = -math.inf
        self.hops_sum = 0
        self.hops_max = 0
        self.hops_count = 0
        self.histogram = [0] * _BUCKETS

    @property
    def mean_latency(self) -> float | None:
        """Mean publish→delivery latency, None before any delivery."""
        if self.delivered == 0:
            return None
        return self.latency_sum / self.delivered

    @property
    def delivered_fraction(self) -> float | None:
        """delivered / Σ expected-at-publish; None when no expected counts
        were recorded (see ``record_publish(expected=...)``)."""
        if self.expected_sum == 0:
            return None
        return self.delivered / self.expected_sum

    @property
    def mean_hops(self) -> float | None:
        """Mean hop count of first-delivered copies (where recorded)."""
        if self.hops_count == 0:
            return None
        return self.hops_sum / self.hops_count

    def latency_percentile(self, q: float) -> float | None:
        """Approximate ``q``-quantile latency (power-of-two bucket upper
        bound; exact when all latencies share a bucket, e.g. the
        zero-latency synchronous-round setting)."""
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile must be in [0,1], got {q}")
        if self.delivered == 0:
            return None
        rank = q * self.delivered
        cumulative = 0
        for bucket, count in enumerate(self.histogram):
            cumulative += count
            if cumulative >= rank and count:
                return min(_bucket_upper_bound(bucket), self.latency_max)
        return self.latency_max

    def __repr__(self) -> str:
        return (
            f"TopicDeliveryStats({self.topic.name}, "
            f"published={self.published}, delivered={self.delivered})"
        )


class StreamingDeliveryTracker:
    """Windowed/aggregate delivery tracker with O(topics) memory.

    Recording API is identical to the full tracker
    (:meth:`record_publish` / :meth:`record_delivery`), so processes and
    systems accept either interchangeably; aggregate queries live here and
    per-event queries raise :class:`~repro.errors.MetricsError`.
    """

    #: distinguishes tracker flavours without isinstance checks
    mode = "streaming"

    def __init__(self, window: float | None = None) -> None:
        if window is not None:
            check_window(window, "window", error=MetricsError)
        #: sliding-window width (event time); None disables the window
        #: series (the per-window dict would otherwise grow O(horizon/width))
        self.window = float(window) if window is not None else None
        self._topics: dict[Topic, TopicDeliveryStats] = {}
        #: window index → [published, expected_sum, delivered]; events are
        #: bucketed by *publish* time, and a delivery folds into the window
        #: its event was published in (``event.published_at`` travels with
        #: the event, so no per-event state is needed)
        self._windows: dict[int, list[int]] = {}
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
        """Fold one publication into its topic (and window) aggregates.

        ``expected`` — the event's intended receivers over a perfect
        network — feeds the delivered-fraction denominators; see the full
        tracker's docstring for the convention.
        """
        self.events_published += 1
        stats = self._stats_for(event.topic)
        stats.published += 1
        if expected is not None:
            stats.expected_sum += expected
        if self.window is not None:
            cell = self._window_cell(event.published_at)
            cell[0] += 1
            if expected is not None:
                cell[1] += expected

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
        if self.window is not None:
            self._window_cell(event.published_at)[2] += 1
        latency = time - event.published_at
        stats.latency_sum += latency
        if latency < stats.latency_min:
            stats.latency_min = latency
        if latency > stats.latency_max:
            stats.latency_max = latency
        stats.histogram[0 if latency <= 0.0 else _latency_bucket(latency)] += 1
        if hops is not None:
            stats.hops_count += 1
            stats.hops_sum += hops
            if hops > stats.hops_max:
                stats.hops_max = hops

    def _window_cell(self, published_at: float) -> list[int]:
        index = int(published_at // self.window)
        cell = self._windows.get(index)
        if cell is None:
            cell = self._windows[index] = [0, 0, 0]
        return cell

    # ------------------------------------------------------------------
    # Aggregate queries
    # ------------------------------------------------------------------
    def window_cells(self) -> dict[int, tuple[int, int, int]]:
        """window index → (published, expected_sum, delivered), sorted.

        Raw material for :func:`repro.metrics.degradation.delivery_ratio_series`;
        raises when the tracker was built without a ``window``.
        """
        if self.window is None:
            raise MetricsError(
                "this StreamingDeliveryTracker has no window configured; "
                "construct it with StreamingDeliveryTracker(window=...)"
            )
        return {
            index: tuple(cell)
            for index, cell in sorted(self._windows.items())
        }

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

    def mean_latency(self, topic: Topic) -> float | None:
        """Mean publish→delivery latency for ``topic``."""
        return self.topic_stats(topic).mean_latency

    def latency_percentile(self, topic: Topic, q: float) -> float | None:
        """Approximate ``q``-quantile delivery latency for ``topic``."""
        return self.topic_stats(topic).latency_percentile(q)

    def state_size(self) -> int:
        """Number of per-topic aggregate records held — the quantity the
        O(topics) memory bound is asserted on (never grows with events)."""
        return len(self._topics)

    def clear(self) -> None:
        """Forget everything (e.g. between warm-up and measurement)."""
        self._topics.clear()
        self._windows.clear()
        self.events_published = 0
        self.deliveries = 0

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

    def received_by(self, event_id: EventId, pid: int) -> bool:
        raise self._unsupported("received_by()")

    def delivered(self, event_id: EventId, pid: int) -> bool:
        raise self._unsupported("delivered()")

    def delivery_count(self, event_id: EventId) -> int:
        raise self._unsupported("delivery_count()")

    def delivery_times(self, event_id: EventId) -> list[float]:
        raise self._unsupported("delivery_times()")

    def delivery_hops(self, event_id: EventId) -> dict[int, int]:
        raise self._unsupported("delivery_hops()")

    def event(self, event_id: EventId) -> Event | None:
        raise self._unsupported("event()")

    def publisher_of(self, event_id: EventId) -> int | None:
        raise self._unsupported("publisher_of()")

    def __repr__(self) -> str:
        return (
            f"StreamingDeliveryTracker({len(self._topics)} topics, "
            f"{self.deliveries} deliveries folded)"
        )
