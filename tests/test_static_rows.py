"""A static process is a row of its group's columns, and nothing else.

Every pinned value below was recorded before static processes held rows,
when each one carried a descriptor topic table and supertopic table of
its own. A row must be the same table, drawn from the same stream and
sampled with the same draws, so nothing here moves: not the construction
digest of a group grown by interleaved ``add_process`` calls (whose pids
are not one block), and not the rows a second finalize seats a process
at. The tables never change after a finalize (§VII), so a static process
— on the object host, its §VIII variant and the columnar host alike —
refuses every message but an event, and one no finalize has seated yet
refuses to select.
"""

import hashlib
import json

import pytest

from repro.core import DaMulticastSystem
from repro.core.columnar import ColumnarStaticSystem
from repro.core.multiparent import MultiParentSystem
from repro.errors import ConfigError, ProtocolError
from repro.membership import ProcessDescriptor
from repro.net.message import (
    AnsContact,
    JoinRequest,
    MembershipGossip,
    NewProcessReply,
    NewProcessRequest,
    Ping,
    Pong,
    ReqContact,
)
from repro.topics import ROOT, Topic, TopicDag

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


def flood_digest(system, event) -> str:
    """SHA-256 over what one flood leaves behind: the network counters,
    who delivered at which hop, and every RNG stream's end state."""
    digest = hashlib.sha256()
    digest.update(json.dumps(system.stats.as_dict(), sort_keys=True).encode())
    hops = system.tracker.delivery_hops(event.event_id)
    digest.update(repr(sorted(hops.items())).encode())
    rngs = system.harness.rngs
    for name in rngs.streams():
        digest.update(name.encode())
        digest.update(repr(rngs.stream(name).getstate()).encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Groups that are not pid blocks
# ----------------------------------------------------------------------
INTERLEAVED_DIGEST = (
    "39a6afdc81481772d71475372e5880b14a8cffa6c21af551ac9390e5279638f8"
)
INTERLEAVED_FLOOD = (
    "8f33403620ab5156da99a1a4918395d5f0a0043f576115844d0d0c19bf8de040"
)


def interleaved_system():
    """Three groups grown one ``add_process`` at a time, in turns."""
    system = DaMulticastSystem(mode="static", seed=21, p_success=0.85)
    for index in range(60):
        system.add_process(T2)
        if index % 5 == 0:
            system.add_process(T1)
        if index % 17 == 0:
            system.add_process(ROOT)
    system.finalize_static_membership()
    return system


def test_interleaved_groups_keep_their_construction_and_flood():
    system = interleaved_system()
    pids = system.group_pids(T2)
    assert len(pids) == 60 and pids != list(range(pids[0], pids[0] + 60))
    assert system.construction_digest() == INTERLEAVED_DIGEST
    event = system.publish(T2)
    system.run_until_idle()
    assert flood_digest(system, event) == INTERLEAVED_FLOOD


# ----------------------------------------------------------------------
# A second finalize reseats every process
# ----------------------------------------------------------------------
REFINALIZED_TOPIC_ROW = [
    49, 48, 41, 42, 45, 22, 13, 10, 32, 29, 47, 46, 8, 21, 30,
]
REFINALIZED_SUPER_ROW = [40, 2, 1]
REFINALIZED_DIGEST = (
    "ebd8f1d360a10d74b4ea06346ba95bcbb82f6eb2e7e3d5ba39e2ce9ee5d123e7"
)
REFINALIZED_FLOOD = (
    "9657ab0c21cdd45e0e167bed22a7d171b1b97dc083c45908822b84766a3f813c"
)


def rows(process):
    return (
        process.tables.row_pids(process.row),
        process.tables.super_row_pids(process.row),
    )


def test_a_second_finalize_reseats_every_process():
    system = DaMulticastSystem(mode="static", seed=8, p_success=0.9)
    system.add_group(T1, 6)
    system.add_group(T2, 30)
    system.finalize_static_membership()
    process = system.group(T2)[0]
    before = rows(process)
    system.add_group(T1, 5)
    system.add_group(T2, 10)
    system.finalize_static_membership()
    after = rows(process)
    assert after != before
    assert after == (REFINALIZED_TOPIC_ROW, REFINALIZED_SUPER_ROW)
    assert system.construction_digest() == REFINALIZED_DIGEST
    event = system.publish(T2, publisher=process)
    system.run_until_idle()
    assert flood_digest(system, event) == REFINALIZED_FLOOD


# ----------------------------------------------------------------------
# A static process takes part in floods only
# ----------------------------------------------------------------------
def _multiparent(**kwargs):
    dag = TopicDag()
    dag.add(T2)
    return MultiParentSystem(dag, **kwargs)


#: host -> a static system factory
HOSTS = {
    "object": lambda: DaMulticastSystem(mode="static", seed=4),
    "multiparent": lambda: _multiparent(seed=4),
    "columnar": lambda: ColumnarStaticSystem(seed=4),
}

#: every protocol message class but the event, built for a sender in .t1
PROTOCOL_MESSAGES = {
    "ReqContact": lambda sender, contact: ReqContact(
        sender=sender, requester=sender, topics=(T1,), request_id=1, ttl=3
    ),
    "AnsContact": lambda sender, contact: AnsContact(
        sender=sender, answered_topic=T1, contacts=(contact,), request_id=1
    ),
    "NewProcessRequest": lambda sender, contact: NewProcessRequest(
        sender=sender, wanted=2
    ),
    "NewProcessReply": lambda sender, contact: NewProcessReply(
        sender=sender, contacts=(contact,)
    ),
    "Ping": lambda sender, contact: Ping(sender=sender, nonce=1),
    "Pong": lambda sender, contact: Pong(sender=sender, nonce=1),
    "JoinRequest": lambda sender, contact: JoinRequest(
        sender=sender, joiner=contact, ttl=2
    ),
    "MembershipGossip": lambda sender, contact: MembershipGossip(
        sender=sender, group=T1, view_sample=(contact,), reply_expected=True
    ),
}


def _receiver_state(system, host, pid):
    """What a stray message could move: the receiver's dedup state and
    rows, the network counters and every RNG stream."""
    rngs = system.harness.rngs
    streams = {name: rngs.stream(name).getstate() for name in rngs.streams()}
    if host == "columnar":
        actor = system.network.actor(pid)
        index = pid - actor.base
        seen = {eid: bytes(mask) for eid, mask in actor._seen.items()}
        table_rows = (
            actor.tables.row_pids(index), actor.tables.super_row_pids(index)
        )
    else:
        process = system.process(pid)
        seen = sorted(process.seen)
        table_rows = rows(process)
        if host == "multiparent":
            table_rows += tuple(
                (topic, table.pids)
                for topic, table in process.super_tables.items()
            )
    return seen, table_rows, system.stats.as_dict(), streams


@pytest.mark.parametrize("kind", sorted(PROTOCOL_MESSAGES))
@pytest.mark.parametrize("host", sorted(HOSTS))
def test_static_processes_refuse_protocol_messages(host, kind):
    system = HOSTS[host]()
    system.add_group(T1, 6)
    system.add_group(T2, 20)
    system.finalize_static_membership()
    system.publish(T2)
    system.run_until_idle()
    receiver = system.group_pids(T2)[3]
    sender = system.group_pids(T1)[0]
    message = PROTOCOL_MESSAGES[kind](sender, ProcessDescriptor(sender, T1))
    before = _receiver_state(system, host, receiver)
    with pytest.raises(ProtocolError, match=f"cannot handle {kind}$"):
        if host == "columnar":
            system.network.actor(receiver).handle_batch(
                sender, (receiver,), message
            )
        else:
            system.process(receiver).handle_message(message)
    assert _receiver_state(system, host, receiver) == before
    assert system.engine.pending == 0


# ----------------------------------------------------------------------
# A process that joined after the last finalize refuses to select
# ----------------------------------------------------------------------
@pytest.mark.parametrize("host", ["object", "multiparent"])
def test_an_unseated_process_refuses_to_publish(host):
    system = HOSTS[host]()
    system.add_group(T1, 4)
    system.add_group(T2, 10)
    system.finalize_static_membership()
    late = system.add_process(T2)
    with pytest.raises(ConfigError, match="finalize_static_membership"):
        late.publish()
    # refused before its event existed: nothing recorded, nothing sent
    assert late.seen == set() and system.tracker.events == []
    assert system.stats.total_sent == 0
    assert late.memory_footprint == 0
    system.finalize_static_membership()
    event = late.publish()
    system.run_until_idle()
    assert system.delivered_fraction(event, T2) == 1.0
