"""Static membership initialization — the paper's §VII simulation mode.

"In the simulation, the membership tables (topic table and supertopic
table) of a process are determined statically. These tables are initialized
at the beginning of the simulation and do not change." Those frozen tables
are drawn from global knowledge:

* the topic table of a process in group ``Ti`` is a uniform sample of
  ``(b+1)·log(S_Ti)`` other group members (the [10] table size,
  :meth:`~repro.core.params.TopicParams.table_capacity`),
* the supertopic table is a uniform sample of ``z`` members of the nearest
  non-empty supergroup (§III-B: if nobody is interested in ``super(Ti)``,
  the table points at the first supertopic, by hierarchy level, that
  induces ``Ti`` — :func:`nearest_populated_super`).

Every static table in the tree — both daMulticast hosts, §VIII's
per-parent tables and the four baselines' groups ("for fairness, all
approaches use the same underlying membership algorithm") — is drawn by
:mod:`repro.membership.columnar`. This module keeps the supergroup rule
and the two historical per-member bodies, :func:`_reference_draw_topic_table`
and :func:`_reference_draw_super_table`: the oracles the columnar builders
are held to, draw for draw and RNG end-state for RNG end-state (the
argument is in :mod:`repro.membership.columnar`'s "Draw order").
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence, Sized

from repro.membership.view import PartialView, ProcessDescriptor
from repro.topics.topic import Topic


def _reference_draw_topic_table(
    member: ProcessDescriptor,
    group: Sequence[ProcessDescriptor],
    capacity: int,
    rng: random.Random,
) -> PartialView:
    """The historical topic-table draw: ``capacity`` members of ``group``
    other than ``member``, rebuilding the O(S) exclusion list per call.

    Kept verbatim as the equivalence oracle: a columnar topic row (or,
    for a ``member`` outside ``group``, an outsider row) must hold the same
    pids in the same order *and* leave the same RNG end-state.
    """
    view = PartialView(capacity)
    others = [d for d in group if d.pid != member.pid]
    chosen = others if capacity >= len(others) else rng.sample(others, capacity)
    for descriptor in chosen:
        view.add(descriptor, rng)
    return view


def _reference_draw_super_table(
    super_group: Sequence[ProcessDescriptor],
    z: int,
    rng: random.Random,
) -> PartialView:
    """The historical ``sTable`` draw: ``z`` members of ``super_group``,
    copying the population per call (the oracle of a super row)."""
    view = PartialView(max(1, z))
    chosen = (
        list(super_group) if z >= len(super_group) else rng.sample(list(super_group), z)
    )
    for descriptor in chosen:
        view.add(descriptor, rng)
    return view


def nearest_populated_super(
    topic: Topic, population: Mapping[Topic, Sized]
) -> Topic | None:
    """The first supertopic (walking up) that has interested processes.

    Implements §III-B's ``sTable`` target selection: the direct supertopic
    if populated, otherwise "the next immediate supertopic ... that induces
    Ti"; ``None`` when every supertopic up to the root is empty.
    """
    for ancestor in topic.ancestors(include_self=False):
        members = population.get(ancestor)
        if members:
            return ancestor
    return None
