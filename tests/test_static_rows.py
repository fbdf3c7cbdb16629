"""A static member is a row of its group's columns, and nothing else.

The tables never change after the finalize (§VII), so a static group's
block actor — on ``DaMulticastSystem(mode="static")`` over a tree or a
§VIII DAG, and on the columnar system alike — refuses every message but
an event, and a refused message moves nothing.
"""

import pytest

from repro.core import DaMulticastSystem
from repro.core.columnar import ColumnarStaticSystem
from repro.errors import ProtocolError
from repro.membership import ProcessDescriptor
from repro.net.control import (
    AnsContact,
    JoinRequest,
    MembershipGossip,
    NewProcessReply,
    NewProcessRequest,
    Ping,
    Pong,
    ReqContact,
)
from repro.topics import Topic

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")
NEWS = Topic.parse(".news")


# ----------------------------------------------------------------------
# A static group takes part in floods only
# ----------------------------------------------------------------------
#: host -> a static system factory
HOSTS = {
    "object": lambda: DaMulticastSystem(mode="static", seed=4),
    "dag": lambda: DaMulticastSystem(mode="static", seed=4),
    "columnar": lambda: ColumnarStaticSystem(seed=4),
}


def populate(system, host, sizes):
    """``.t1`` and ``.t1.t2`` groups of ``sizes``; on the ``dag`` host
    ``.t1.t2`` is also linked under a populated ``.news`` (§VIII)."""
    system.add_group(T1, sizes[0])
    system.add_group(T2, sizes[1])
    if host == "dag":
        system.add_group(NEWS, 3)
        system.link(T2, NEWS)
    system.finalize_static_membership()

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


def _receiver_state(system, pid):
    """What a stray message could move: the receiver's dedup state and
    rows, the network counters and every RNG stream."""
    rngs = system.harness.rngs
    streams = {name: rngs.stream(name).getstate() for name in sorted(rngs._streams)}
    actor = system.group_actor(T2)
    index = pid - actor.base
    seen = {eid: bytes(mask) for eid, mask in actor._seen.items()}
    table_rows = (
        actor.tables.row_pids(index), actor.tables.super_rows_of(index)
    )
    return seen, table_rows, system.stats.as_dict(), streams


@pytest.mark.parametrize("kind", sorted(PROTOCOL_MESSAGES))
@pytest.mark.parametrize("host", sorted(HOSTS))
def test_static_processes_refuse_protocol_messages(host, kind):
    system = HOSTS[host]()
    populate(system, host, (6, 20))
    system.publish(T2)
    system.run_until_idle()
    receiver = system.group_pids(T2)[3]
    sender = system.group_pids(T1)[0]
    message = PROTOCOL_MESSAGES[kind](sender, ProcessDescriptor(sender, T1))
    before = _receiver_state(system, receiver)
    with pytest.raises(ProtocolError, match=f"cannot handle {kind}$"):
        system.group_actor(T2).handle_batch(sender, (receiver,), message)
    assert _receiver_state(system, receiver) == before
    assert system.engine.pending == 0
