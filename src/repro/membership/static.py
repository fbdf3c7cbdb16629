"""Static membership initialization — the paper's §VII simulation mode.

"In the simulation, the membership tables (topic table and supertopic
table) of a process are determined statically. These tables are initialized
at the beginning of the simulation and do not change." This module draws
those frozen tables from global knowledge:

* the topic table of a process in group ``Ti`` is a uniform sample of
  ``(b+1)·log(S_Ti)`` other group members (the [10] table size),
* the supertopic table is a uniform sample of ``z`` members of the nearest
  non-empty supergroup (§III-B: if nobody is interested in ``super(Ti)``,
  the table points at the first supertopic, by hierarchy level, that
  induces ``Ti``).

The same helpers serve the baselines, which use identically-drawn tables
for their own group structures (the paper's comparison holds "for fairness,
all approaches use the same underlying membership algorithm").

Fast build context — the index-sampling equivalence trick
---------------------------------------------------------

The historical implementation rebuilt, for every member, the exclusion
list ``others = [d for d in group if d.pid != member.pid]`` and sampled
descriptors from it — O(S) list construction per member, O(S²) per group.
:class:`GroupTableBuilder` (topic tables, one exclusion per member) and
:class:`GroupSampler` (supertopic tables, no exclusion) replace that with
one shared descriptor list per group and per-member **index** samples,
O(S·k) per group, while remaining draw-for-draw identical:

* ``random.Random.sample(population, k)`` is purely positional: its RNG
  consumption and the *positions* it selects depend only on ``(len(
  population), k)``, never on the elements. Hence
  ``rng.sample(pop, k) == [pop[i] for i in rng.sample(range(len(pop)), k)]``
  with an identical RNG end-state — sampling index sets and mapping them
  through a shared list reproduces the old draws exactly.
* the per-member exclusion list ``others_i`` (member ``i`` removed, order
  preserved) differs from ``others_{i-1}`` at exactly one position:
  ``others_i[j] = group[j]`` for ``j < i`` and ``group[j+1]`` otherwise, so
  a single working copy is advanced from member to member with one O(1)
  write (``work[i-1] = group[i-1]``) instead of an O(S) rebuild.
* the draw itself is :func:`repro.membership.sampling.sample_from` — both
  of ``random.sample``'s branches (pool for small populations, selection
  set with rejection for large ones) written out once over the
  ``getrandbits`` stream the stdlib consumes, and shared with
  :class:`~repro.membership.view.PartialView` and the columnar rows, so
  every table in the tree is drawn and later sampled by one loop.

Because the per-member draw never exceeds the view capacity, tables are
materialised with the bulk :meth:`~repro.membership.view.PartialView.
install` (no per-add overflow checks, no eviction draws). The historical
bodies are kept as :func:`_reference_draw_topic_table` /
:func:`_reference_draw_super_table`; a property test asserts fast and
reference paths produce identical views *and* identical RNG end-states.
"""

from __future__ import annotations

import math
import random
from typing import Mapping, Sequence

from repro.errors import ConfigError
from repro.membership.sampling import sample_from
from repro.membership.view import PartialView, ProcessDescriptor
from repro.topics.topic import Topic


def static_table_capacity(
    group_size: int, b: float, log_base: float = math.e
) -> int:
    """The [10] topic-table size ``(b+1)·log(S)``, at least 1.

    ``log_base`` follows the owning protocol's fan-out base (see DESIGN.md
    note 2); the ceiling keeps tiny groups functional.
    """
    if group_size < 1:
        raise ConfigError(f"group size must be >= 1, got {group_size}")
    if group_size == 1:
        return 1
    return max(1, math.ceil((b + 1) * math.log(group_size, log_base)))


class GroupTableBuilder:
    """Shared per-group context drawing every member's topic table.

    Materialises the group's descriptor list **once** and serves each
    member an O(k) draw (see the module docstring for why the draws are
    bit-identical to the historical per-member exclusion lists). Intended
    use is one builder per group, members visited by index::

        builder = GroupTableBuilder(descriptors)
        for i, process in enumerate(members):
            view = builder.table_at(i, capacity, rng)

    Visiting members in ascending index order is the O(1)-per-member fast
    path; arbitrary order stays correct (the working copy is rebuilt).
    """

    def __init__(self, group: Sequence[ProcessDescriptor]):
        self._descriptors = list(group)
        self._pid_index = {
            descriptor.pid: index
            for index, descriptor in enumerate(self._descriptors)
        }
        # A pid occurring more than once makes positional exclusion (drop
        # one entry) diverge from pid exclusion (drop every occurrence);
        # table_for falls back to the reference filter in that case.
        self._has_duplicate_pids = len(self._pid_index) != len(
            self._descriptors
        )
        # Working exclusion list: equals ``others_cursor`` (the group with
        # the member at ``_cursor`` removed, order preserved).
        self._work = self._descriptors[1:]
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._descriptors)

    def _others_for(self, index: int) -> list[ProcessDescriptor]:
        """The exclusion list for member ``index`` (shared working copy)."""
        descriptors = self._descriptors
        cursor = self._cursor
        if index < cursor:
            # Rare out-of-order access: rebuild the working copy.
            self._work = descriptors[:index] + descriptors[index + 1 :]
        else:
            work = self._work
            while cursor < index:
                work[cursor] = descriptors[cursor]
                cursor += 1
        self._cursor = index
        return self._work

    def table_at(
        self, index: int, capacity: int, rng: random.Random
    ) -> PartialView:
        """The topic table of the member at ``index`` in the group list."""
        view = PartialView(capacity)
        n = len(self._descriptors) - 1  # excluding the member itself
        others = self._others_for(index)
        if capacity >= n:
            chosen: Sequence[ProcessDescriptor] = others
        else:
            chosen = sample_from(others, 0, n, capacity, rng)
        view.install(chosen)
        return view

    def table_for(
        self, member: ProcessDescriptor, capacity: int, rng: random.Random
    ) -> PartialView:
        """The topic table of ``member`` (located by pid).

        A member whose pid is not in the group samples from the full list
        (matching the historical filter-by-pid semantics, which removed
        nothing in that case) — the naive-publisher baseline draws
        publisher-side supergroup tables this way. A group holding the
        same pid more than once keeps the historical every-occurrence
        exclusion (positional index sampling would drop only one entry).
        """
        if self._has_duplicate_pids:
            return _reference_draw_topic_table(
                member, self._descriptors, capacity, rng
            )
        index = self._pid_index.get(member.pid)
        if index is not None:
            return self.table_at(index, capacity, rng)
        view = PartialView(capacity)
        n = len(self._descriptors)
        if capacity >= n:
            chosen: Sequence[ProcessDescriptor] = self._descriptors
        else:
            chosen = sample_from(self._descriptors, 0, n, capacity, rng)
        view.install(chosen)
        return view


class GroupSampler:
    """Shared no-exclusion sampler over one group's descriptor list.

    Serves the supertopic-table draws (every member of a subgroup samples
    ``z`` descriptors from the *same* supergroup) and the baselines'
    outsider tables without copying the population per member. Draws are
    bit-identical to ``rng.sample(list(group), k)``.
    """

    def __init__(self, group: Sequence[ProcessDescriptor]):
        self._descriptors = list(group)

    def __len__(self) -> int:
        return len(self._descriptors)

    def sample(self, k: int, rng: random.Random) -> list[ProcessDescriptor]:
        """Uniform draw of ``k`` descriptors (all of them when ``k >= n``)."""
        n = len(self._descriptors)
        if k >= n:
            return list(self._descriptors)
        return sample_from(self._descriptors, 0, n, k, rng)

    def table(self, z: int, rng: random.Random) -> PartialView:
        """A fresh ``sTable`` view holding a uniform ``z``-draw."""
        view = PartialView(max(1, z))
        view.install(self.sample(z, rng))
        return view


def draw_topic_table(
    member: ProcessDescriptor,
    group: Sequence[ProcessDescriptor],
    capacity: int,
    rng: random.Random,
) -> PartialView:
    """A uniform sample of ``capacity`` group members, excluding ``member``.

    One-shot convenience over :class:`GroupTableBuilder`; loops drawing a
    table per member should build the builder once instead.
    """
    return GroupTableBuilder(group).table_for(member, capacity, rng)


def draw_super_table(
    super_group: Sequence[ProcessDescriptor],
    z: int,
    rng: random.Random,
) -> PartialView:
    """A uniform sample of ``z`` supergroup members (the ``sTable``).

    One-shot convenience over :class:`GroupSampler`; loops sampling the
    same supergroup per member should build the sampler once instead.
    """
    return GroupSampler(super_group).table(z, rng)


def _reference_draw_topic_table(
    member: ProcessDescriptor,
    group: Sequence[ProcessDescriptor],
    capacity: int,
    rng: random.Random,
) -> PartialView:
    """Historical O(S)-per-member body of :func:`draw_topic_table`.

    Kept verbatim as the equivalence oracle: the fast build context must
    produce identical views *and* an identical RNG end-state.
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
    """Historical copy-per-call body of :func:`draw_super_table` (oracle)."""
    view = PartialView(max(1, z))
    chosen = (
        list(super_group) if z >= len(super_group) else rng.sample(list(super_group), z)
    )
    for descriptor in chosen:
        view.add(descriptor, rng)
    return view


def nearest_populated_super(
    topic: Topic,
    population: Mapping[Topic, Sequence[ProcessDescriptor]],
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
