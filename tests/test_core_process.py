"""Direct unit tests of the process actor's message handling."""

import pytest

from repro.core import DaMulticastConfig, DaMulticastSystem
from repro.core.events import Event, EventId
from repro.errors import ProtocolError
from repro.membership import ProcessDescriptor
from repro.net.control import Ping, Pong
from repro.net.message import EventMessage, Message, Scope
from repro.topics import ROOT, Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


def tiny_system(mode="static", **kwargs):
    system = DaMulticastSystem(seed=0, mode=mode, **kwargs)
    system.add_group(ROOT, 2)
    system.add_group(T1, 4)
    system.add_group(T2, 6)
    if mode == "static":
        system.finalize_static_membership()
    return system


class TestMessageDispatch:
    def test_ping_answered_with_pong(self):
        system = tiny_system(mode="dynamic")
        a, b = system.group(T2)[0], system.group(T2)[1]
        a.handle_message(Ping(sender=b.pid, nonce=42))
        assert system.stats.sent_by_kind["pong"] == 1

    def test_pong_records_proof_of_life(self):
        system = tiny_system(mode="dynamic")
        process = system.group(T2)[0]
        super_pid = system.group(T1)[0].pid
        process._merge_piggybacked_super((ProcessDescriptor(super_pid, T1),))
        process.handle_message(Pong(sender=super_pid, nonce=1))
        assert process.super_table.check(system.now, timeout=1.0) == 1

    def test_pong_from_stranger_ignored(self):
        system = tiny_system(mode="dynamic")
        process = system.group(T2)[0]
        super_pid = system.group(T1)[0].pid
        process._merge_piggybacked_super((ProcessDescriptor(super_pid, T1),))
        process.handle_message(Pong(sender=99999, nonce=1))
        assert process.super_table.check(system.now, timeout=1.0) == 0

    def test_unknown_message_type_raises(self):
        system = tiny_system(mode="dynamic")
        process = system.group(T2)[0]

        class Weird(Message):
            pass

        with pytest.raises(ProtocolError):
            process.handle_message(Weird(sender=0))

    def test_parasite_event_raises(self):
        system = tiny_system(mode="dynamic")
        t2_process = system.group(T2)[0]
        bad = Event(EventId(0, 1), T1, None, 0.0)  # supertopic event
        message = EventMessage(
            sender=1, event=bad, scope=Scope("intra", T2)
        )
        with pytest.raises(ProtocolError):
            t2_process.handle_message(message)

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_duplicate_event_ignored(self, mode):
        deliveries = []
        system = tiny_system(
            mode,
            delivery_callback=lambda process, event: deliveries.append(
                (process.pid, event.event_id)
            ),
        )
        process = system.group(T2)[0]
        event = Event(EventId(0, 1), T2, None, 0.0)
        message = EventMessage(
            sender=1, event=event, scope=Scope("intra", T2)
        )
        if mode == "static":  # a static group is one block actor
            actor = system.group_actor(T2)

            def receive():
                actor.handle_batch(1, (process.pid,), message)
        else:

            def receive():
                process.handle_message(message)

        receive()
        assert deliveries == [(process.pid, event.event_id)]
        receive()
        assert deliveries == [(process.pid, event.event_id)]
        assert system.tracker.delivery_count(event.event_id) == 1


class TestSubscriptionLifecycle:
    def test_subscribe_idempotent(self):
        system = tiny_system(mode="dynamic")
        process = system.group(T2)[0]
        assert process.subscribed
        process.subscribe()
        process.subscribe()
        assert process.subscribed

    def test_static_mode_starts_no_tasks(self):
        system = tiny_system(mode="static")
        for process in system.processes:
            assert not hasattr(process, "maintenance")
            assert not hasattr(process, "find_super_contact")
        assert system.engine.pending == 0

    def test_group_size_is_the_bound_cell(self):
        system = tiny_system(mode="dynamic")
        process = system.group(T2)[0]
        assert process.group_size == 6


class TestPiggybackMerge:
    def test_super_sample_adopted(self):
        system = tiny_system(mode="dynamic")
        process = system.group(T2)[0]
        t1_member = system.group(T1)[0]
        process._merge_piggybacked_super(
            (ProcessDescriptor(t1_member.pid, T1),)
        )
        assert process.super_table.target_topic == T1
        assert t1_member.pid in process.super_table.pids

    def test_wrong_topic_samples_rejected(self):
        system = tiny_system(mode="dynamic")
        process = system.group(T2)[0]
        sibling = Topic.parse(".t1.other")
        process._merge_piggybacked_super(
            (ProcessDescriptor(12345, sibling),)
        )
        assert process.super_table.is_empty

    def test_direct_super_contact_stops_search(self):
        system = tiny_system(mode="dynamic")
        process = system.group(T2)[0]
        process.find_super_contact.start()
        assert process.find_super_contact.active
        t1_member = system.group(T1)[0]
        process._merge_piggybacked_super(
            (ProcessDescriptor(t1_member.pid, T1),)
        )
        assert not process.find_super_contact.active


class TestReportExports:
    def test_table_csv_and_json(self):
        from repro.metrics import Table

        table = Table("T", ["x", "y"])
        table.add_row(1, 2.0)
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0] == "x,y"
        assert csv_text.splitlines()[1] == "1,2.0"
        import json

        payload = json.loads(table.to_json())
        assert payload["title"] == "T"
        assert payload["rows"] == [{"x": 1, "y": 2.0}]
