"""Streaming delivery tracker: aggregates, bounds, and loud refusals."""

import pytest

from repro.core.columnar import ColumnarStaticSystem
from repro.core.events import Event, EventId
from repro.errors import MetricsError
from repro.metrics import StreamingDeliveryTracker
from repro.topics import Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


def event(eid=1, topic=T2, at=0.0):
    return Event(EventId(0, eid), topic, None, at)


class TestAggregates:
    def test_publish_and_delivery_fold_into_topic_stats(self):
        tracker = StreamingDeliveryTracker()
        e = event(at=1.0)
        tracker.record_publish(e, publisher=0, expected=3)
        tracker.record_delivery(1, e, 3.0, hops=2)
        tracker.record_delivery(2, e, 5.0, hops=4)
        stats = tracker.topic_stats(T2)
        assert stats.published == 1
        assert stats.delivered == 2
        assert stats.expected_sum == 3
        assert tracker.deliveries == 2
        assert tracker.events_published == 1

    def test_topics_are_separated(self):
        tracker = StreamingDeliveryTracker()
        tracker.record_delivery(1, event(topic=T1), 1.0)
        tracker.record_delivery(1, event(topic=T2), 2.0)
        assert tracker.topics() == [T1, T2]
        assert tracker.delivery_count_by_topic(T1) == 1
        assert tracker.delivery_count_by_topic(T2) == 1

    def test_unseen_topic_reads_as_zeros(self):
        tracker = StreamingDeliveryTracker()
        stats = tracker.topic_stats(T1)
        assert stats.published == 0
        assert stats.delivered == 0
        assert tracker.state_size() == 0


class TestPerEventQueriesRefuse:
    @pytest.mark.parametrize(
        "query",
        [
            lambda t: t.receivers(EventId(0, 1)),
            lambda t: t.delivery_count(EventId(0, 1)),
        ],
    )
    def test_raises_metrics_error(self, query):
        tracker = StreamingDeliveryTracker()
        with pytest.raises(MetricsError, match="streaming tracker"):
            query(tracker)


class TestMemoryBound:
    def test_state_stays_o_topics_over_ten_thousand_events(self):
        """The issue's acceptance test: publish >= 10^4 events through a
        paper-shaped (two-level) columnar system and check the tracker's
        state never grows past the topic count — memory is O(topics), not
        O(messages)."""
        system = ColumnarStaticSystem(seed=42)
        system.add_group(".t1", 4)
        system.add_group(".t1.t2", 8)
        system.finalize_static_membership()
        events = 10_000
        for i in range(events):
            system.publish(".t1.t2" if i % 2 else ".t1")
            system.run_until_idle()
            assert system.tracker.state_size() <= 2
        assert system.tracker.events_published == events
        assert system.tracker.deliveries >= events
        assert system.tracker.state_size() == 2
