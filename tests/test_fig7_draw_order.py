"""Fig. 7 has two bodies, and they draw alike.

A dynamic process disseminates through :func:`repro.core.dissemination.
disseminate` over descriptor tables (:func:`elect_links` over a
:class:`SuperTopicTable`, :meth:`PartialView.sample_pids`); a static group's
block actor runs the figure itself over pid columns
(:meth:`ColumnarGroupActor._forward`). Given the same rows and equal-seeded
streams, both must make the same multicasts — targets, scope and hops, in
order — and leave their stream in the same state: per super block the link
election (skipped when forced) and one ``p_a`` draw per row entry, then the
gossip sample. Zero, one or two super blocks cover a group at the root, on
a tree and under §VIII's one table per parent.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.dissemination import disseminate, elect_links
from repro.core.events import Event, EventId
from repro.core.params import TopicParams
from repro.core.group_actor import ColumnarGroupActor
from repro.core.tables import SuperTopicTable
from repro.membership.columnar import build_group_tables
from repro.membership.view import PartialView, ProcessDescriptor
from repro.net.message import Scope
from repro.topics import Topic, TopicHierarchy

T = Topic.parse(".t1.t2")
PARENTS = (Topic.parse(".t1"), Topic.parse(".other"))
BASE = 1_000


class RecordingNetwork:
    """What the actor binds: ``multicast``, recorded."""

    def __init__(self):
        self.sent = []

    def multicast(self, sender, targets, message):
        self.sent.append((sender, list(targets), message.scope, message.hops))


class DescriptorPeer:
    """A :class:`~repro.core.dissemination.DisseminationPeer` over
    descriptor tables holding a member's rows: one supertopic table per
    super block, each elected over on its own."""

    def __init__(self, pid, rng, params, size, topic_row, super_rows):
        self.pid = pid
        self.topic = T
        self.intra_scope = Scope("intra", T)
        self.rng = rng
        self._fanout = params.fanout(size)
        self._p_sel = params.p_sel(size)
        self._p_a = params.p_a
        self._view = PartialView(max(1, len(topic_row)))
        for target in topic_row:
            self._view.add(ProcessDescriptor(target, T))
        self._super_tables = []
        for parent, pids in super_rows:
            table = SuperTopicTable(params.z)
            # z holds the whole row, so the merge draws nothing
            table.adopt(parent, [ProcessDescriptor(p, parent) for p in pids], None)
            assert [d.pid for d in table.descriptors()] == pids
            self._super_tables.append(table)
        self.sent = []

    def link_targets(self, force_link):
        links = []
        for table in self._super_tables:
            links += elect_links(table, self._p_sel, self._p_a, self.rng, force_link)
        return links

    def gossip_targets(self):
        return self._view.sample_pids(self._fanout, self.rng, self.pid)

    def multicast(self, targets, message):
        self.sent.append((message.sender, list(targets), message.scope, message.hops))


@st.composite
def groups(draw):
    size = draw(st.integers(min_value=1, max_value=200))
    z = draw(st.integers(min_value=1, max_value=10))
    params = TopicParams(
        c=draw(st.integers(min_value=0, max_value=8)),
        g=draw(st.integers(min_value=1, max_value=size)),
        a=draw(st.integers(min_value=1, max_value=z)),
        z=z,
        fanout_log_base=draw(st.sampled_from([2.0, 10.0])),
    )
    # the topic row's length is min(capacity, S-1): a fan-out above it
    # takes the whole row, one at or below it samples
    capacity = draw(st.integers(min_value=1, max_value=30))
    super_sizes = draw(
        st.lists(st.integers(min_value=1, max_value=15), max_size=len(PARENTS))
    )
    return size, params, capacity, super_sizes


@given(
    group=groups(),
    index_at=st.floats(min_value=0, max_value=1, exclude_max=True),
    force_link=st.booleans(),
    arrival_hops=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_the_block_actor_draws_like_disseminate(
    group, index_at, force_link, arrival_hops, seed
):
    size, params, capacity, super_sizes = group
    supers = []
    next_base = BASE + size
    for parent, super_size in zip(PARENTS, super_sizes):
        supers.append((parent, range(next_base, next_base + super_size)))
        next_base += super_size
    tables = build_group_tables(
        T,
        range(BASE, BASE + size),
        capacity,
        random.Random(seed ^ 1),
        supers=supers,
        z=params.z,
    )
    index = int(index_at * size)
    pid = BASE + index
    event = Event(EventId(99, 1), T, None, 0.0)

    network = RecordingNetwork()
    actor = ColumnarGroupActor(
        tables,
        params,
        TopicHierarchy(),
        engine=None,
        network=network,
        rngs=None,
        tracker=None,
        streams=[None] * size,
        members=[None] * size,
    )
    actor_rng = random.Random(seed)
    actor._forward(index, pid, actor_rng, event, arrival_hops + 1, force_link)

    peer = DescriptorPeer(
        pid,
        random.Random(seed),
        params,
        size,
        tables.row_pids(index),
        tables.super_rows_of(index),
    )
    disseminate(peer, event, force_link=force_link, arrival_hops=arrival_hops)

    assert network.sent == peer.sent
    assert actor_rng.getstate() == peer.rng.getstate()
