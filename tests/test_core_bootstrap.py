"""Unit tests for FIND_SUPER_CONTACT (Fig. 4) at the message level.

These drive the search directly over a real (small) network so the flood,
widening, narrowing and stop conditions can be observed step by step.
"""

import sys
from collections import Counter, defaultdict

import pytest

from repro.core import DaMulticastConfig, DaMulticastSystem
from repro.core.bootstrap import FindSuperContact, known_contacts_for
from repro.net.control import ReqContact
from repro.topics import ROOT, Topic
from repro.workloads.presets import load_preset
from repro.workloads.spec import compile_spec

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")
T3 = Topic.parse(".t1.t2.t3")


def build(groups, *, seed=0, config=None):
    system = DaMulticastSystem(
        config=config
        or DaMulticastConfig(bootstrap_timeout=2.0, bootstrap_ttl=4),
        seed=seed,
        mode="dynamic",
    )
    for topic, count in groups.items():
        system.add_group(topic, count, subscribe=False)
    return system


class TestWidening:
    def test_targets_start_with_direct_super(self):
        system = build({T2: 2, T1: 2})
        process = system.group(T2)[0]
        process.find_super_contact.start()
        assert process.find_super_contact._targets == [T1]

    def test_targets_widen_on_timeout(self):
        # Nobody in T1 or ROOT -> the search widens level by level.
        system = build({T2: 3})
        process = system.group(T2)[0]
        process.subscribe()
        system.run(until=2.5)  # one timeout elapsed
        assert ROOT in process.find_super_contact._targets

    def test_root_process_never_searches(self):
        system = build({ROOT: 2})
        process = system.group(ROOT)[0]
        process.find_super_contact.start()
        assert not process.find_super_contact.active

    def test_search_gives_up_after_max_attempts(self):
        system = build({T2: 3})
        process = system.group(T2)[0]
        process.find_super_contact._max_attempts = 3
        # Start the task alone (no maintenance loop, which would restart
        # it per Fig. 6 lines 12-14 — covered by the next test).
        process.find_super_contact.start()
        system.run(until=30.0)
        assert not process.find_super_contact.active
        assert process.find_super_contact._attempts == 3

    def test_maintenance_restarts_abandoned_search(self):
        system = build({T2: 3})
        process = system.group(T2)[0]
        process.find_super_contact._max_attempts = 3
        process.subscribe()  # maintenance re-arms the search on emptiness
        system.run(until=30.0)
        # The task may be mid-cycle or between give-up and restart, but it
        # must have gone through several full search cycles.
        assert process.find_super_contact._attempts >= 1
        assert system.stats.sent_by_kind["req_contact"] > 10


class TestStopAndNarrow:
    def test_stops_on_direct_super_answer(self):
        system = build({T2: 4, T1: 4, ROOT: 2})
        for process in system.group(T1) + system.group(ROOT):
            process.subscribe()
        target = system.group(T2)[0]
        target.subscribe()
        system.run(until=10.0)
        assert target.super_table.target_topic == T1
        assert not target.find_super_contact.active

    def test_adopts_farther_super_but_keeps_searching(self):
        # Only the root is populated: table adopts root contacts but the
        # task must stay active, still hoping for a direct T1 contact.
        system = build({T2: 4, ROOT: 3})
        target = system.group(T2)[0]
        target.subscribe()
        for process in system.group(ROOT):
            process.subscribe()
        system.run(until=6.0)
        if not target.super_table.is_empty:
            assert target.super_table.target_topic == ROOT
            assert target.find_super_contact.active

    def test_narrowing_prefers_deeper_answers(self):
        # Root found first, then T1 appears: the table re-targets to T1.
        system = build({T2: 4, ROOT: 3})
        target = system.group(T2)[0]
        target.subscribe()
        for process in system.group(ROOT):
            process.subscribe()
        system.run(until=8.0)
        late_t1 = system.add_process(T1)
        system.run(until=40.0)
        assert target.super_table.target_topic == T1
        assert late_t1.pid in target.super_table.pids or len(
            target.super_table
        ) >= 1


class TestReceiverSide:
    def test_known_contacts_prefers_deepest_topic(self):
        system = build({T2: 3, T1: 2})
        process = system.group(T2)[0]
        # The process knows T2 (itself + table) and nothing of T1 yet.
        answer = known_contacts_for(process, (T1, T2))
        assert answer is not None
        topic, contacts = answer
        assert topic == T2
        assert any(d.pid == process.pid for d in contacts)

    def test_unknown_topics_return_none(self):
        system = build({T2: 2})
        process = system.group(T2)[0]
        assert known_contacts_for(process, (T1, ROOT)) is None

    def test_super_table_knowledge_is_shared(self):
        system = build({T2: 4, T1: 3, ROOT: 2})
        for process in system.processes:
            process.subscribe()
        system.run(until=15.0)
        informed = [
            p for p in system.group(T2) if not p.super_table.is_empty
        ]
        assert informed
        answer = known_contacts_for(informed[0], (T1,))
        assert answer is not None
        assert answer[0] == T1

    def test_flood_is_deduplicated(self):
        system = build({T2: 5})
        target = system.group(T2)[0]
        target.subscribe()
        system.run(until=2.0)
        sent_first = system.stats.sent_by_kind["req_contact"]
        # The flood must terminate: bounded by TTL and per-process dedup,
        # not exponential.
        assert sent_first <= 5 * 5 * 5  # generous cap


# ----------------------------------------------------------------------
# One whole run: what the floods of the ``super-link-attack`` preset do
# ----------------------------------------------------------------------
class RecordedRun:
    """One ``super-link-attack`` run with ``Network.send``/``multicast``
    and ``FindSuperContact.start`` wrapped, recording what is asserted
    below. No preset, spec key or protocol constant is touched."""

    def __init__(self, seed=0):
        built = compile_spec(load_preset("super-link-attack")).build(seed=seed)
        system = built.system
        network = system.network
        #: ``(kind, request_id | nonce)`` of every message handed over
        self.ids = []
        #: (forwarder, requester, request_id) -> REQCONTACT multicasts
        self.forwards = Counter()
        #: (requester, request_id) -> transmissions / the pids that sent them
        self.flood_size = Counter()
        self.flood_senders = defaultdict(set)
        #: originations by a process whose sTable pointed at its direct
        #: supertopic at that moment
        self.needless_originations = []
        #: name of the calling function -> searches it actually started
        self.searches_started = Counter()

        def record(message):
            self.ids.append(
                (
                    type(message).__name__,
                    getattr(message, "request_id", getattr(message, "nonce", None)),
                )
            )

        def send(sender, target, message, _send=network.send):
            assert not isinstance(message, ReqContact)  # floods are batched
            record(message)
            return _send(sender, target, message)

        def multicast(sender, targets, message, _multicast=network.multicast):
            record(message)
            if isinstance(message, ReqContact):
                flood = (message.requester, message.request_id)
                self.forwards[(sender, *flood)] += 1
                self.flood_size[flood] += len(targets)
                self.flood_senders[flood].add(sender)
                if sender == message.requester:
                    origin = system.process(sender)
                    if origin.super_table.targets_direct_super_of(origin.topic):
                        self.needless_originations.append((system.now, sender))
            return _multicast(sender, targets, message)

        def start(task, _start=FindSuperContact.start):
            was_active = task.active
            _start(task)
            if task.active and not was_active:
                self.searches_started[sys._getframe(1).f_code.co_name] += 1

        network.send, network.multicast = send, multicast
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(FindSuperContact, "start", start)
            try:
                built.execute()
                self.neighborhood_size = {
                    p.pid: len(p.neighborhood()) for p in system.processes
                }
            finally:
                system.close()


class TestSuperLinkAttackFloods:
    """ROADMAP 3(a), answered as invariants: the REQCONTACT storm of this
    preset is Fig. 4 run as specified, set off by the preset's timers."""

    @pytest.fixture(scope="class")
    def run(self):
        return RecordedRun()

    def test_ids_repeat_across_runs_in_one_interpreter(self, run):
        # Request ids and nonces used to come from class-level counters
        # shared by every system the interpreter ever built: the second
        # run of one (spec, seed) sent different message contents.
        again = RecordedRun()
        assert any(kind == "ReqContact" for kind, _ in run.ids)
        assert any(kind == "Ping" for kind, _ in run.ids)
        assert any(
            kind == "MembershipGossip" and nonce for kind, nonce in run.ids
        )
        assert again.ids == run.ids

    def test_each_process_forwards_a_flood_at_most_once(self, run):
        assert run.forwards
        assert max(run.forwards.values()) == 1

    def test_no_flood_exceeds_its_forwarders_neighborhoods(self, run):
        for flood, transmissions in run.flood_size.items():
            reachable = sum(
                run.neighborhood_size[pid] for pid in run.flood_senders[flood]
            )
            assert transmissions <= reachable, flood

    def test_a_linked_process_originates_no_flood(self, run):
        # While its sTable holds contacts of its direct supertopic a
        # process never floods; only _evaluate clearing the table (or the
        # table never having been filled) sets a search off.
        assert run.needless_originations == []

    def test_searches_are_started_by_the_ping_timeout(self, run):
        # The preset configures ping_timeout = 0.5 against an inter-group
        # round trip of 2 × U[0.1, 0.5] (mean 0.6): P(RTT <= 0.5) ≈ 0.28,
        # × 0.9² for the two channel crossings, so a probe usually finds
        # 0 of 3 entries "alive", _evaluate clears the table and restarts
        # the search — before anything has been killed. That is what this
        # workload measures; retuning the preset changes the workload, not
        # the speed of the code under it.
        started = run.searches_started
        assert set(started) <= {"subscribe", "_tick", "_evaluate"}
        assert started["subscribe"] > 0
        assert started["_evaluate"] > 0.9 * sum(started.values()), started
