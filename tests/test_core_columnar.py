"""ColumnarStaticSystem runtime: block actors, flyweight dissemination.

The columnar backend must run the *same protocol* (one Fig. 7 kernel,
repro.core.group_actor.forward, drives every host) over per-group state. These tests exercise the
facade's lifecycle guards, the block actor's delivery semantics (dedup
bitmask, parasite refusal), and cross-check the delivery outcome against
the full tracker and the paper's expectations (100% delivery on a lossless
network, sane fractions under stillborn failure).
"""

import hashlib
import random

import pytest

from repro.core.columnar import ColumnarStaticSystem
from repro.core.events import Event, EventId
from repro.errors import ConfigError, ProtocolError, UnknownTopic
from repro.failures.churn import ChurnSchedule
from repro.failures.stillborn import StillbornFailures
from repro.metrics.delivery import delivered_fraction
from repro.net.faults import BernoulliLoss
from repro.net.message import EventMessage, Message, Scope
from repro.net.stats import FAULT_LOSS
from repro.topics.topic import Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


def small_system(**kwargs) -> ColumnarStaticSystem:
    system = ColumnarStaticSystem(seed=kwargs.pop("seed", 7), **kwargs)
    system.add_group(".t1", 50)
    system.add_group(".t1.t2", 200)
    return system


def seen_pids(system, topic, event) -> set[int]:
    """The members of ``topic``'s group whose seen bit ``event`` set."""
    actor = system.group_actor(topic)
    mask = actor._seen.get(event.event_id, ())
    return {actor.base + index for index, bit in enumerate(mask) if bit}


class TestLifecycle:
    def test_publish_requires_finalize(self):
        system = small_system()
        with pytest.raises(ConfigError, match="finalize"):
            system.publish(".t1")

    def test_one_block_per_topic(self):
        system = small_system()
        with pytest.raises(ConfigError, match=r"\.t1 is one contiguous pid block"):
            system.add_group(".t1", 10)
        # the last topic's block grows
        assert [m.pid for m in system.add_group(".t1.t2", 2)] == [250, 251]

    def test_finalize_guards(self):
        empty = ColumnarStaticSystem()
        with pytest.raises(ConfigError, match="no groups"):
            empty.finalize_static_membership()
        system = small_system()
        system.finalize_static_membership()
        with pytest.raises(ConfigError, match="already finalized"):
            system.finalize_static_membership()
        with pytest.raises(ConfigError, match=r"cannot change \.t3"):
            system.add_group(".t3", 10)

    def test_pid_blocks_are_contiguous_in_creation_order(self):
        system = ColumnarStaticSystem()
        assert [m.pid for m in system.add_group(".t1", 50)] == list(range(0, 50))
        assert [m.pid for m in system.add_group(".t1.t2", 200)] == list(
            range(50, 250)
        )

    def test_unknown_topic_queries(self):
        system = small_system()
        system.finalize_static_membership()
        with pytest.raises(UnknownTopic):
            system.publish(".nope")
        with pytest.raises(UnknownTopic):
            system.group_actor(".nope")


class TestPublish:
    def test_explicit_publisher_and_sequencing(self):
        system = small_system()
        system.finalize_static_membership()
        first = system.publish(".t1", publisher=system.process(3))
        second = system.publish(".t1", publisher=system.process(3))
        other = system.publish(".t1", publisher=system.process(4))
        assert first.event_id == EventId(3, 1)
        assert second.event_id == EventId(3, 2)
        assert other.event_id == EventId(4, 1)
        assert first.topic == T1

    def test_publisher_must_belong_to_group(self):
        system = small_system()
        system.finalize_static_membership()
        with pytest.raises(ConfigError, match=r"\.t1\.t2 events, not \.t1"):
            system.publish(".t1", publisher=system.process(199))

    def test_lossless_network_delivers_everywhere(self):
        """p_success=1, no failures: gossip plus the publisher's forced
        super link must reach every member of the topic's group and of
        the supergroup (the paper's zero-loss sanity point)."""
        system = small_system(seed=5)
        system.finalize_static_membership()
        event = system.publish(".t1.t2")
        system.run_until_idle()
        assert seen_pids(system, ".t1.t2", event) == set(range(50, 250))
        assert seen_pids(system, ".t1", event) == set(range(50))
        stats = system.tracker.topic_stats(T2)
        assert stats.published == 1
        assert stats.delivered == 250

    def test_streaming_is_default_full_opt_in_matches_bitmask(self):
        """With tracker='full' the per-event records agree exactly with
        the actor's seen bitmask — the two delivery accounts can't
        drift."""
        system = small_system(tracker="full")
        assert ColumnarStaticSystem().tracker.mode == "streaming"
        system.finalize_static_membership()
        event = system.publish(".t1.t2")
        system.run_until_idle()
        receivers = system.tracker.receivers(event.event_id)
        for topic, block in ((".t1", range(0, 50)), (".t1.t2", range(50, 250))):
            seen = seen_pids(system, topic, event)
            fraction = delivered_fraction(system.tracker, event.event_id, block)
            assert fraction == len(seen) / len(block)
            assert seen == {pid for pid in block if pid in receivers}

    def test_stillborn_failures_respected(self):
        """Dead members never appear in the seen bitmask (the network
        drops them), the publisher is drawn from the alive remainder, and
        the alive fraction still gets good coverage."""
        dead = set(range(60, 120))  # 60 of .t1.t2's 200 members
        system = small_system(
            seed=11, failure_model=StillbornFailures(dead)
        )
        system.finalize_static_membership()
        event = system.publish(".t1.t2")
        system.run_until_idle()
        assert event.event_id.publisher not in dead
        seen = seen_pids(system, ".t1.t2", event)
        assert not (seen & dead)
        alive = [p for p in range(50, 250) if p not in dead]
        assert len(seen & set(alive)) / len(alive) > 0.8

    def test_link_faults_degrade_the_flood_gracefully(self):
        """The fault hook sits under both hosts: a 1 % Bernoulli coin per
        link fires on the columnar flood too, and gossip redundancy keeps
        the flood near-complete anyway."""
        system = small_system(seed=9)
        system.finalize_static_membership()
        assert system.network._fault_hook is None  # uninstalled: zero draws
        system.network.install_faults(BernoulliLoss(0.01), random.Random(17))
        system.publish(".t1.t2")
        system.run_until_idle()
        assert system.stats.faults_by_reason[FAULT_LOSS] > 0
        assert system.tracker.deliveries > 0.9 * 250

    def test_all_dead_group_cannot_publish(self):
        system = small_system(
            failure_model=StillbornFailures(range(0, 50))  # all of .t1
        )
        system.finalize_static_membership()
        with pytest.raises(UnknownTopic, match="no alive process"):
            system.publish(".t1")


class TestPublisherElection:
    """The publisher is drawn from the members alive at the publish."""

    def test_churn_crashes_are_seen_by_later_publishes(self):
        """Pids 0, 1, 3 and 4 of a 5-member group crash at t = 1: every
        publish at t = 2 comes from pid 2, although a publish at t = 0
        elected from all five."""
        churn = ChurnSchedule()
        for pid in (0, 1, 3, 4):
            churn.crash_at(pid, 1.0)
        system = ColumnarStaticSystem(seed=3, failure_model=churn)
        system.add_group(".t1", 5)
        system.finalize_static_membership()
        system.publish(".t1")
        system.run(until=2.0)
        publishers = [system.publish(".t1").event_id.publisher for _ in range(6)]
        system.run_until_idle()
        assert publishers == [2] * 6
        assert system.stats.dropped_by_reason["dead_sender"] == 0

    def test_a_replaced_static_model_is_elected_from_afresh(self):
        system = small_system(seed=4, failure_model=StillbornFailures(range(1, 50)))
        system.finalize_static_membership()
        assert system.publish(".t1").event_id.publisher == 0
        system.network.failure_model = StillbornFailures(range(0, 49))
        assert system.publish(".t1").event_id.publisher == 49


class TestBlockActor:
    def test_non_event_message_refused(self):
        system = small_system()
        system.finalize_static_membership()
        actor = system.group_actor(".t1")
        with pytest.raises(ProtocolError, match="cannot handle"):
            actor.handle_batch(0, (1,), Message(sender=0))

    def test_parasite_event_refused(self):
        """Property 4: a columnar group must never deliver an event of a
        topic its members did not subscribe to."""
        system = small_system()
        system.finalize_static_membership()
        actor = system.group_actor(".t1")
        foreign = Event(EventId(0, 1), Topic.parse(".x"), None, 0.0)
        message = EventMessage(
            sender=0,
            event=foreign,
            scope=Scope("intra", Topic.parse(".x")),
            hops=1,
        )
        with pytest.raises(ProtocolError, match="parasite"):
            actor.handle_batch(0, (1,), message)

    def test_duplicate_deliveries_ignored(self):
        system = small_system()
        system.finalize_static_membership()
        event = system.publish(".t1", publisher=system.process(0))
        system.run_until_idle()
        actor = system.group_actor(".t1")
        before = system.tracker.topic_stats(T1).delivered
        message = EventMessage(
            sender=0, event=event, scope=Scope("intra", T1), hops=1
        )
        actor.handle_batch(0, tuple(range(1, 6)), message)
        system.run_until_idle()
        # every target had already seen the event: no new deliveries
        assert system.tracker.topic_stats(T1).delivered == before

    def test_event_state_release(self):
        system = small_system()
        system.finalize_static_membership()
        event = system.publish(".t1")
        system.run_until_idle()
        actor = system.group_actor(".t1")
        assert len(seen_pids(system, ".t1", event)) == 50
        actor.release_event_state(event.event_id)
        assert seen_pids(system, ".t1", event) == set()

    def test_membership_bytes_accounts_all_columns(self):
        system = small_system()
        system.finalize_static_membership()
        per_group = sum(
            system.group_actor(t).membership_bytes() for t in (".t1", ".t1.t2")
        )
        assert system.membership_bytes() == per_group > 0


#: Captured at the commit before the flood path was restructured (staged
#: ``Network.multicast``, pid-level ``DisseminationPeer``, inlined
#: ``sample_row`` draws): seed 20240, groups .t1 = 50 / .t1.t2 = 500,
#: ``p_success = 0.85``, three publications on .t1.t2. The stream hashes
#: are SHA-256 of ``repr(getstate())`` of each ``group/<topic>`` stream —
#: one draw more or fewer anywhere in a flood changes them.
GOLDEN_RUNTIME = {
    "stats": {
        "sent_by_kind": {"event": 19370},
        "delivered_by_kind": {"event": 16511},
        "dropped_by_reason": {"channel_loss": 2859},
        "faults_by_reason": {},
        "intra_group_sent": {".t1": 1350, ".t1.t2": 18000},
        "inter_group_sent": {".t1.t2->.t1": 20},
    },
    "delivered": {".t1.t2": 1650},
    "processed": 16511,
    "streams": {
        ".t1": (
            "51fc137bdf8e792435895e75e6293b875a910d20f492dea69b2012cfa863b91b"
        ),
        ".t1.t2": (
            "e668733f1bc332e38ea784ace3ab89c7b2a763d5bc6259c30d7b59644abf3158"
        ),
    },
}


def test_runtime_trajectory_golden():
    """The columnar *runtime* is not gated against the object backend (it
    draws from per-group streams); this pins its own trajectory instead."""
    system = ColumnarStaticSystem(seed=20240, p_success=0.85)
    system.add_group(".t1", 50)
    system.add_group(".t1.t2", 500)
    system.finalize_static_membership()
    for _ in range(3):
        system.publish(".t1.t2")
        system.run_until_idle()
    tracker = system.tracker
    streams = system.harness.rngs
    assert {
        "stats": system.stats.as_dict(),
        "delivered": {
            topic.name: tracker.topic_stats(topic).delivered
            for topic in tracker.topics()
        },
        "processed": system.engine.processed,
        "streams": {
            name: hashlib.sha256(
                repr(streams.stream(f"group/{name}").getstate()).encode()
            ).hexdigest()
            for name in (".t1", ".t1.t2")
        },
    } == GOLDEN_RUNTIME
