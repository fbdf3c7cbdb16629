"""Unit tests for the metrics layer (tracker, delivery queries, reports)."""

import pytest

from repro.core.events import Event, EventId
from repro.metrics import (
    DeliveryTracker,
    Table,
    delivered_fraction,
    parasite_deliveries,
)
from repro.topics import Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


def event(eid=1, topic=T2, at=0.0):
    return Event(EventId(0, eid), topic, None, at)


class TestTracker:
    def test_publish_and_delivery_recorded(self):
        tracker = DeliveryTracker()
        e = event()
        tracker.record_publish(e, publisher=0)
        tracker.record_delivery(1, e, 2.0)
        assert tracker.events == [e]
        assert tracker.receivers(e.event_id) == {1: 2.0}

    def test_first_delivery_wins(self):
        tracker = DeliveryTracker()
        e = event()
        tracker.record_delivery(1, e, 2.0)
        tracker.record_delivery(1, e, 5.0)
        assert tracker.receivers(e.event_id)[1] == 2.0

    def test_delivery_count(self):
        tracker = DeliveryTracker()
        e = event()
        tracker.record_delivery(1, e, 3.0)
        tracker.record_delivery(2, e, 1.0)
        tracker.record_delivery(2, e, 4.0)  # duplicate ignored
        assert tracker.delivery_count(e.event_id) == 2

    def test_tracker_records_hops(self):
        tracker = DeliveryTracker()
        e = event()
        tracker.record_delivery(1, e, 0.0, hops=2)
        tracker.record_delivery(2, e, 0.0, hops=3)
        tracker.record_delivery(2, e, 0.0, hops=9)  # duplicate ignored
        assert tracker.delivery_hops(e.event_id) == {1: 2, 2: 3}

    def test_unknown_event(self):
        tracker = DeliveryTracker()
        assert tracker.receivers(EventId(9, 9)) == {}
        assert tracker.expected(EventId(9, 9)) is None
        assert tracker.delivery_count(EventId(9, 9)) == 0


class TestDeliveredFraction:
    def test_basic_fraction(self):
        tracker = DeliveryTracker()
        e = event()
        tracker.record_delivery(1, e, 0.0)
        tracker.record_delivery(2, e, 0.0)
        assert delivered_fraction(tracker, e.event_id, [1, 2, 3, 4]) == 0.5

    def test_alive_filter(self):
        tracker = DeliveryTracker()
        e = event()
        tracker.record_delivery(1, e, 0.0)
        fraction = delivered_fraction(
            tracker, e.event_id, [1, 2], is_alive=lambda pid: pid == 1
        )
        assert fraction == 1.0

    def test_empty_group_vacuous(self):
        tracker = DeliveryTracker()
        assert delivered_fraction(tracker, EventId(0, 1), []) == 1.0

    def test_all_dead_group_vacuous(self):
        """Heavy stillborn failure can kill a whole small group: nobody is
        left who *could* receive, so it is trivially reliable (1.0, never
        0.0) — which §VI-D's indicator, ``delivered_fraction(...) == 1.0``,
        reads as True."""
        tracker = DeliveryTracker()
        e = event()
        # Nobody delivered anything, every member is dead.
        dead = lambda pid: False
        assert delivered_fraction(tracker, e.event_id, [1, 2, 3], dead) == 1.0

    def test_receivers_view_is_read_only(self):
        tracker = DeliveryTracker()
        e = event()
        tracker.record_delivery(1, e, 2.0)
        receivers = tracker.receivers(e.event_id)
        assert receivers == {1: 2.0}
        with pytest.raises(TypeError):
            receivers[2] = 0.0
        # Unknown events share one empty read-only view, equal to {}.
        missing = tracker.receivers(EventId(9, 9))
        assert missing == {}
        with pytest.raises(TypeError):
            missing[1] = 0.0


class TestParasites:
    def test_counts_uninterested_deliveries(self):
        tracker = DeliveryTracker()
        e = event(topic=T1)  # event of the supertopic
        tracker.record_publish(e, 0)
        tracker.record_delivery(1, e, 0.0)  # pid 1 subscribes to T2: parasite
        tracker.record_delivery(2, e, 0.0)  # pid 2 subscribes to T1: fine
        interests = {1: T2, 2: T1}
        assert parasite_deliveries(tracker, interests) == 1

    def test_subtopic_event_is_not_parasitic_for_super(self):
        tracker = DeliveryTracker()
        e = event(topic=T2)
        tracker.record_publish(e, 0)
        tracker.record_delivery(1, e, 0.0)
        assert parasite_deliveries(tracker, {1: T1}) == 0

    def test_unknown_interest_counts_as_parasite(self):
        tracker = DeliveryTracker()
        e = event()
        tracker.record_publish(e, 0)
        tracker.record_delivery(7, e, 0.0)
        assert parasite_deliveries(tracker, {}) == 1


class TestTable:
    def test_render_alignment(self):
        table = Table("Title", ["a", "bb"], precision=2)
        table.add_row(1, 2.5)
        rendered = table.render()
        assert "Title" in rendered
        assert "2.50" in rendered

    def test_row_length_checked(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_as_dicts(self):
        table = Table("T", ["x", "y"])
        table.add_row(1, 10)
        table.add_row(2, 20)
        assert table.as_dicts() == [{"x": 1, "y": 10}, {"x": 2, "y": 20}]

    def test_empty_table_renders(self):
        table = Table("Empty", ["col"])
        assert "Empty" in table.render()

    def test_bool_cells_render_as_words(self):
        table = Table("T", ["ok"])
        table.add_row(True)
        assert "True" in table.render()
