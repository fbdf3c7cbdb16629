"""A static process reads its tables off its group's columns; views of
them are made on demand, and from then on the process selects from those.

Every pinned value below was recorded before static processes held rows,
when each one carried a descriptor topic table and supertopic table of
its own. A row and the view made from it must be the same table, drawn
from the same stream and sampled with the same draws, so nothing here
moves: not the construction digest of a group grown by interleaved
``add_process`` calls (whose pids are not one block), not the tables a
second finalize serves to a process whose views were read before it,
not the links of a process whose supertopic table merged a stray
``AnsContact``, and not the empty tables of a process no finalize has
seated yet.
"""

import hashlib
import json

from repro.core import DaMulticastConfig, DaMulticastSystem
from repro.core.params import TopicParams
from repro.membership import ProcessDescriptor
from repro.net.message import AnsContact, Pong
from repro.topics import ROOT, Topic

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
# A second finalize replaces every row and every view made before it
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


def test_a_second_finalize_serves_new_rows_to_views_read_before():
    system = DaMulticastSystem(mode="static", seed=8, p_success=0.9)
    system.add_group(T1, 6)
    system.add_group(T2, 30)
    system.finalize_static_membership()
    process = system.group(T2)[0]
    before = (process.topic_table().pids, process.super_table.pids)
    system.add_group(T1, 5)
    system.add_group(T2, 10)
    system.finalize_static_membership()
    after = (process.topic_table().pids, process.super_table.pids)
    assert after != before
    assert after == (REFINALIZED_TOPIC_ROW, REFINALIZED_SUPER_ROW)
    assert system.construction_digest() == REFINALIZED_DIGEST
    event = system.publish(T2, publisher=process)
    system.run_until_idle()
    assert flood_digest(system, event) == REFINALIZED_FLOOD


# ----------------------------------------------------------------------
# A stray AnsContact merges into the view, and links follow the view
# ----------------------------------------------------------------------
MERGED_SUPER_TABLE = [0, 4, 1]
MERGED_FLOOD = (
    "9b44d71af4f44482333b1f5341f3d621ec51c23a9d9344d82b0f7432bd7b2e53"
)


def test_links_come_from_a_super_table_merged_after_a_stray_answer():
    # p_a = a/z = 1: an elected link hands the event to every entry
    config = DaMulticastConfig(default_params=TopicParams(a=3.0, z=3))
    system = DaMulticastSystem(
        mode="static", seed=5, p_success=1.0, config=config
    )
    system.add_group(T1, 6)
    system.add_group(T2, 20)
    system.finalize_static_membership()
    process = system.group(T2)[0]
    drawn = process.super_table.pids
    newcomer = next(pid for pid in system.group_pids(T1) if pid not in drawn)
    process.handle_message(
        AnsContact(
            sender=newcomer,
            answered_topic=T1,
            contacts=(ProcessDescriptor(newcomer, T1),),
            request_id=1,
        )
    )
    merged = process.super_table.pids
    assert newcomer in merged and len(merged) == 3
    assert merged == MERGED_SUPER_TABLE
    event = system.publish(T2, publisher=process)
    system.run_until_idle()
    # the publisher always links, and it alone sends at hop 1 into .t1
    first_hand = {
        pid
        for pid, hops in system.tracker.delivery_hops(event.event_id).items()
        if hops == 1 and pid in system.group_pids(T1)
    }
    assert first_hand == set(merged)
    assert flood_digest(system, event) == MERGED_FLOOD


# ----------------------------------------------------------------------
# A process that joined after the last finalize has empty tables
# ----------------------------------------------------------------------
def test_a_process_not_seated_yet_selects_from_empty_tables():
    system = DaMulticastSystem(mode="static", seed=2)
    system.add_group(T1, 4)
    system.add_group(T2, 10)
    system.finalize_static_membership()
    late = system.add_process(T2)
    # a stray Pong makes its supertopic-table view before anything else
    late.handle_message(Pong(sender=system.group_pids(T1)[0], nonce=1))
    event = late.publish()
    system.run_until_idle()
    assert late.delivered == [event]
    assert late.memory_footprint == 0
    assert system.stats.total_sent == 0
