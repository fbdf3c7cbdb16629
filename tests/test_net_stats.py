"""Unit tests for network statistics, including Figs. 8/9 attribution."""

from repro.core.events import Event, EventId
from repro.net.control import Ping
from repro.net.message import EventMessage, Scope
from repro.net.stats import NetworkStats
from repro.topics import Topic


def event_message(scope: Scope) -> EventMessage:
    event = Event(
        event_id=EventId(publisher=1, sequence=1),
        topic=scope.group,
        payload="x",
        published_at=0.0,
    )
    return EventMessage(sender=1, event=event, scope=scope)


T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")
INTRA = Scope("intra", T2)
INTER = Scope("inter", T2, T1)


class TestEventAttribution:
    def test_intra_group_counted_per_group(self):
        stats = NetworkStats()
        stats.record_sent(event_message(INTRA))
        stats.record_sent(event_message(INTRA))
        assert stats.events_sent_in_group(T2) == 2
        assert stats.events_sent_in_group(T1) == 0

    def test_inter_group_counted_per_edge(self):
        stats = NetworkStats()
        stats.record_sent(event_message(INTER))
        assert stats.events_sent_between(T2, T1) == 1
        assert stats.events_sent_between(T1, T2) == 0

    def test_delivered_counters_mirror_sent(self):
        stats = NetworkStats()
        message = event_message(INTRA)
        stats.record_sent(message)
        stats.record_delivered_many(message, 1)
        assert stats.delivered_by_kind["event"] == stats.sent_by_kind["event"] == 1

    def test_event_messages_sent_totals_both_scopes(self):
        stats = NetworkStats()
        stats.record_sent(event_message(INTRA))
        stats.record_sent(event_message(INTER))
        assert stats.event_messages_sent() == 2

    def test_overhead_excludes_events(self):
        stats = NetworkStats()
        stats.record_sent(event_message(INTRA))
        stats.record_sent(Ping(sender=0, nonce=1))
        assert stats.overhead_messages_sent() == 1


class TestAggregates:
    def test_totals(self):
        stats = NetworkStats()
        ping = Ping(sender=0, nonce=1)
        stats.record_sent(ping)
        stats.record_sent(ping)
        stats.record_delivered_many(ping, 1)
        stats.record_dropped(ping, "channel_loss")
        assert stats.total_sent == 2
        assert sum(stats.delivered_by_kind.values()) == 1
        assert stats.total_dropped == 1

    def test_as_dict_stable_keys(self):
        stats = NetworkStats()
        stats.record_sent(event_message(INTRA))
        stats.record_sent(event_message(INTER))
        snapshot = stats.as_dict()
        assert snapshot["intra_group_sent"] == {T2.name: 1}
        assert snapshot["inter_group_sent"] == {f"{T2.name}->{T1.name}": 1}
