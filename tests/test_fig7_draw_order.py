"""Fig. 7 has one body, and it draws as the figure reads.

Both modes disseminate through :func:`repro.core.group_actor.forward`: a
static group's block actor over its pid columns (a member's rows are
windows of them), a dynamic process over its descriptor tables (index 0,
its :class:`SuperTopicTable` as one super block, its view's pid list as
the whole topic row). Given equal-seeded streams, the kernel must make the
multicasts — targets, scope and hops, in order — and leave its stream in
the state of :func:`reference_fig7`, the figure written out over plain
lists with ``random.sample``: per non-empty supertopic table the link
election (skipped when forced) and one ``p_a`` draw per entry, then the
gossip sample. Zero, one or two super blocks cover a group at the root,
on a tree and under §VIII's one table per parent.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.events import Event, EventId
from repro.core.group_actor import forward
from repro.core.params import TopicParams
from repro.core.tables import SuperTopicTable
from repro.membership.columnar import build_group_tables
from repro.membership.view import PartialView, ProcessDescriptor
from repro.net.message import Scope
from repro.topics import Topic

T = Topic.parse(".t1.t2")
PARENTS = (Topic.parse(".t1"), Topic.parse(".other"))
INTRA = Scope("intra", T)
BASE = 1_000
EVENT = Event(EventId(99, 1), T, None, 0.0)


def reference_fig7(pid, rng, params, size, topic_row, super_rows, force_link, next_hops):
    """Fig. 7 lines 3-14 over a member's rows, as ``(sender, targets,
    scope, hops)`` sends: ``super_rows`` is ``[(scope, pids), …]``."""
    sent = []
    for scope, pids in super_rows:
        if not pids:
            continue  # an empty supertopic table draws nothing
        if force_link or rng.random() < params.p_sel(size):
            kept = [target for target in pids if rng.random() < params.p_a]
            if kept:
                sent.append((pid, kept, scope, next_hops))
    fanout = params.fanout(size)
    if fanout >= len(topic_row):
        gossip = list(topic_row)
    else:
        gossip = rng.sample(topic_row, fanout)
    if gossip:
        sent.append((pid, gossip, INTRA, next_hops))
    return sent


class RecordingMulticast:
    """The kernel's ``multicast``, recorded."""

    def __init__(self):
        self.sent = []

    def __call__(self, sender, targets, message):
        self.sent.append((sender, list(targets), message.scope, message.hops))


@st.composite
def params_and_size(draw):
    size = draw(st.integers(min_value=1, max_value=200))
    z = draw(st.integers(min_value=1, max_value=10))
    params = TopicParams(
        c=draw(st.integers(min_value=0, max_value=8)),
        g=draw(st.integers(min_value=1, max_value=size)),
        a=draw(st.integers(min_value=1, max_value=z)),
        z=z,
        fanout_log_base=draw(st.sampled_from([2.0, 10.0])),
    )
    return params, size


@given(
    group=params_and_size(),
    # the topic row's length is min(capacity, S-1): a fan-out above it
    # takes the whole row, one at or below it samples
    capacity=st.integers(min_value=1, max_value=30),
    super_sizes=st.lists(st.integers(min_value=1, max_value=15), max_size=len(PARENTS)),
    index_at=st.floats(min_value=0, max_value=1, exclude_max=True),
    force_link=st.booleans(),
    next_hops=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_a_column_window_draws_like_the_figure(
    group, capacity, super_sizes, index_at, force_link, next_hops, seed
):
    """A static member: its rows are windows of its group's pid columns."""
    params, size = group
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
    blocks = [
        (Scope("inter", T, target), stride, rows)
        for target, stride, rows in tables.supers
    ]

    multicast = RecordingMulticast()
    rng = random.Random(seed)
    forward(
        multicast, pid, EVENT, next_hops, rng, force_link, index, blocks,
        params.p_sel(size), params.p_a, INTRA, tables.rows, tables.stride,
        params.fanout(size),
    )

    reference_rng = random.Random(seed)
    expected = reference_fig7(
        pid,
        reference_rng,
        params,
        size,
        tables.row_pids(index),
        [(Scope("inter", T, target), pids) for target, pids in tables.super_rows_of(index)],
        force_link,
        next_hops,
    )
    assert multicast.sent == expected
    assert rng.getstate() == reference_rng.getstate()


@given(
    group=params_and_size(),
    topic_row=st.lists(st.integers(min_value=1, max_value=500), max_size=40, unique=True),
    super_row=st.lists(
        st.integers(min_value=501, max_value=900), max_size=10, unique=True
    ),
    force_link=st.booleans(),
    next_hops=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_a_view_list_draws_like_the_figure(
    group, topic_row, super_row, force_link, next_hops, seed
):
    """A dynamic process: index 0, its supertopic table as one block (none
    when empty) and its view's pids as the whole row."""
    params, size = group
    parent = PARENTS[0]
    view = PartialView(max(1, len(topic_row)))
    for target in topic_row:
        view.add(ProcessDescriptor(target, T))
    table = SuperTopicTable(len(super_row) or 1)
    if super_row:
        # the table holds the whole row, so the merge draws nothing
        table.adopt(parent, [ProcessDescriptor(p, parent) for p in super_row], None)
    scope = Scope("inter", T, parent)
    links = table.pids
    blocks = ((scope, len(links), links),) if links else ()
    row = view.pids

    multicast = RecordingMulticast()
    rng = random.Random(seed)
    forward(
        multicast, 0, EVENT, next_hops, rng, force_link, 0, blocks,
        params.p_sel(size), params.p_a, INTRA, row, len(row),
        params.fanout(size),
    )

    reference_rng = random.Random(seed)
    expected = reference_fig7(
        0, reference_rng, params, size, topic_row, [(scope, super_row)],
        force_link, next_hops,
    )
    assert multicast.sent == expected
    assert rng.getstate() == reference_rng.getstate()
