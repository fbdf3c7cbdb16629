"""Graceful-degradation metrics: the windowed series (full tracker) and
the per-topic summary (both tracker flavours)."""

import pytest

from repro.core.events import Event, EventId
from repro.errors import MetricsError
from repro.metrics import (
    DeliveryTracker,
    StreamingDeliveryTracker,
    degradation_summary,
    delivery_ratio_series,
)
from repro.topics import Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


def event(eid, topic=T2, at=0.0):
    return Event(EventId(0, eid), topic, None, at)


def populate(tracker):
    """Three windows of width 2: healthy, degraded, recovered."""
    # window [0, 2): 2 events, expected 3 each, all delivered
    for eid, at in ((1, 0.0), (2, 1.5)):
        e = event(eid, at=at)
        tracker.record_publish(e, publisher=0, expected=3)
        for pid in (1, 2, 3):
            tracker.record_delivery(pid, e, at + 0.5)
    # window [2, 4): 1 event, expected 3, only 1 delivered (faulted)
    e = event(3, at=2.5)
    tracker.record_publish(e, publisher=0, expected=3)
    tracker.record_delivery(1, e, 3.0)
    # window [4, 6): 1 event on the parent topic, fully delivered — and
    # its delivery arrives *late* (t=9), to pin publish-time attribution
    e = event(4, topic=T1, at=4.0)
    tracker.record_publish(e, publisher=0, expected=2)
    for pid in (1, 2):
        tracker.record_delivery(pid, e, 9.0)
    return tracker


@pytest.fixture(params=["full", "streaming"])
def tracker(request):
    if request.param == "full":
        return populate(DeliveryTracker())
    return populate(StreamingDeliveryTracker())


class TestDeliveryRatioSeries:
    def test_series_shape_and_ratios(self):
        series = delivery_ratio_series(populate(DeliveryTracker()), window=2.0)
        assert [p.ratio for p in series] == [1.0, pytest.approx(1 / 3), 1.0]
        assert [(p.start, p.end) for p in series] == [
            (0.0, 2.0),
            (2.0, 4.0),
            (4.0, 6.0),
        ]
        assert [p.published for p in series] == [2, 1, 1]
        assert [p.expected for p in series] == [6, 3, 2]
        assert [p.delivered for p in series] == [6, 1, 2]

    def test_late_delivery_attributed_to_publish_window(self):
        # event 4 published at t=4 but delivered at t=9: still window [4,6)
        series = delivery_ratio_series(populate(DeliveryTracker()), window=2.0)
        assert series[-1].start == 4.0
        assert series[-1].ratio == 1.0

    def test_empty_windows_are_skipped(self):
        t = DeliveryTracker()
        for eid, at in ((1, 0.0), (2, 10.0)):
            t.record_publish(event(eid, at=at), publisher=0, expected=1)
        series = delivery_ratio_series(t, window=1.0)
        assert [p.start for p in series] == [0.0, 10.0]

    def test_events_without_expected_yield_none_ratio(self):
        t = DeliveryTracker()
        e = event(1)
        t.record_publish(e, publisher=0)  # no expected recorded
        t.record_delivery(1, e, 0.5)
        (point,) = delivery_ratio_series(t, window=1.0)
        assert point.ratio is None
        assert point.delivered == 1

    @pytest.mark.parametrize("bad", [0, -1.0, float("nan"), float("inf"), True])
    def test_window_validation(self, bad):
        with pytest.raises(MetricsError):
            delivery_ratio_series(DeliveryTracker(), window=bad)

    def test_streaming_tracker_has_no_series(self):
        t = StreamingDeliveryTracker()
        t.record_publish(event(1), publisher=0, expected=1)
        with pytest.raises(MetricsError, match="full DeliveryTracker"):
            delivery_ratio_series(t, window=1.0)


class TestDegradationSummary:
    def test_per_topic_fractions(self, tracker):
        summary = degradation_summary(tracker)
        assert set(summary) == {T1.name, T2.name}
        assert summary[T2.name] == {
            "published": 3,
            "expected": 9,
            "delivered": 7,
            "delivered_fraction": pytest.approx(7 / 9),
        }
        assert summary[T1.name]["delivered_fraction"] == 1.0

    def test_full_and_streaming_summaries_agree(self):
        full = degradation_summary(populate(DeliveryTracker()))
        streaming = degradation_summary(
            populate(StreamingDeliveryTracker())
        )
        for name in full:
            assert full[name] == pytest.approx(streaming[name])

    def test_no_expected_counts_yield_none_fraction(self):
        t = DeliveryTracker()
        e = event(1)
        t.record_publish(e, publisher=0)
        t.record_delivery(1, e, 0.5)
        summary = degradation_summary(t)
        assert summary[T2.name]["delivered_fraction"] is None

    def test_empty_tracker_gives_empty_summary(self):
        assert degradation_summary(DeliveryTracker()) == {}
        assert degradation_summary(StreamingDeliveryTracker()) == {}
