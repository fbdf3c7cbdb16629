"""Process descriptors and bounded partial views (membership tables).

A :class:`PartialView` is the data structure behind both of the paper's
tables: the topic table ``Table_Ti`` (capacity ``(b+1)·log(S)``, maintained
by the underlying membership algorithm) and the supertopic table
``sTable_Ti`` (constant capacity ``z``). It stores
:class:`ProcessDescriptor` entries, evicts uniformly at random on overflow
(which keeps views close to uniform samples of the group — the property the
gossip analysis of [10] needs), and supports the paper's MERGE semantics.

Hot-path design (the gossip fast path calls
:meth:`PartialView.sample_pids` once per first reception of an event, and
static construction calls :meth:`PartialView.install` once per process).
Beside the entry dict a view keeps two insertion-ordered mirrors of it:

* **Cached descriptor tuple** — what ``descriptors`` and ``sample`` serve
  from; every mutator (``add``, ``_evict_uniform``, ``remove``, ``replace``,
  ``install``, ``clear``, and ``set_capacity`` through its evictions) resets
  it to ``None`` and it is rebuilt lazily.
* **Pid list** — what ``sample_pids`` and uniform eviction index into, so
  that neither materialises ``list(self._entries)`` per call. It is never
  stale: the same mutators keep it in step in place (invariant:
  ``_pid_list is None`` or ``_pid_list == list(_entries)``; only the bulk
  ``install`` drops it to ``None``, and the first sample or eviction
  rebuilds it). An eviction victim is one ``rng._randbelow(len)`` draw —
  exactly the draw ``rng.choice(list(entries))`` used to make.

Both samples go through :func:`repro.membership.sampling.sample_from`, which
selects positions exactly as ``random.Random.sample`` does, so a pid sample
is, draw for draw, the pids of the descriptor sample. The ubiquitous
``exclude=(self.pid,)`` call — a process never holds itself in its own
table — runs straight over the mirror with no per-call filtering.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ConfigError, MembershipError
from repro.membership.sampling import sample_from
from repro.topics.topic import Topic


@dataclass(frozen=True, slots=True, order=True)
class ProcessDescriptor:
    """Identity of a process as stored in membership tables.

    ``topic`` is the topic the process is interested in (§III-A assumes one
    topic of interest per process); tables never need more than this pair.
    """

    pid: int
    topic: Topic


class PartialView:
    """A bounded, duplicate-free table of :class:`ProcessDescriptor`.

    Insertion order is preserved (oldest first), which gives the supertopic
    table a natural notion of "favorite" entries (footnote 5: MERGE keeps
    the favorite superprocesses): the longest-held live entries survive.

    Two insertion-ordered mirrors of the entry dict serve the hot paths
    (module docstring): the descriptor tuple ``_cache`` behind
    :meth:`descriptors`/:meth:`sample`, dropped by every mutator and
    rebuilt lazily, and the pid list ``_pid_list`` behind
    :meth:`sample_pids` and eviction, kept in step by every mutator
    (dropped only by the bulk :meth:`install`). Neither can be served stale.
    """

    __slots__ = ("capacity", "_entries", "_pid_list", "_cache")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"view capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: dict[int, ProcessDescriptor] = {}
        #: insertion-order mirror of ``_entries`` keys; ``None`` = rebuild
        #: lazily on first sample or eviction (bulk ``install`` skips it).
        self._pid_list: list[int] | None = []
        #: tuple snapshot served by ``descriptors``/``sample``; ``None``
        #: after any mutation.
        self._cache: tuple[ProcessDescriptor, ...] | None = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _evict_uniform(self, rng: random.Random | None, what: str) -> int:
        """Remove and return one uniformly chosen pid (one rng draw)."""
        if rng is None:
            raise MembershipError(what)
        pids = self._pid_list
        if pids is None:
            pids = self._pid_list = list(self._entries)
        # One _randbelow draw — the same single draw that
        # rng.choice(list(self._entries)) used to consume, but without
        # materialising the key list per eviction.
        index = rng._randbelow(len(pids))
        victim = pids[index]
        del pids[index]
        del self._entries[victim]
        self._cache = None
        return victim

    def add(
        self, descriptor: ProcessDescriptor, rng: random.Random | None = None
    ) -> bool:
        """Insert ``descriptor``; evict a uniform random entry on overflow.

        Returns True when the descriptor is present after the call (it may
        itself be the eviction victim, in which case False is returned).
        Re-adding a known pid refreshes nothing and returns True.
        """
        if descriptor.pid in self._entries:
            return True
        self._entries[descriptor.pid] = descriptor
        if self._pid_list is not None:
            self._pid_list.append(descriptor.pid)
        self._cache = None
        if len(self._entries) > self.capacity:
            victim = self._evict_uniform(
                rng, "view overflow requires an rng for uniform eviction"
            )
            return victim != descriptor.pid
        return True

    def merge(
        self,
        descriptors: Iterable[ProcessDescriptor],
        rng: random.Random | None = None,
    ) -> int:
        """Add many descriptors; returns how many were new before eviction."""
        added = 0
        for descriptor in descriptors:
            if descriptor.pid not in self._entries:
                added += 1
            self.add(descriptor, rng)
        return added

    def install(self, descriptors: Iterable[ProcessDescriptor]) -> None:
        """Replace the whole content with ``descriptors`` (bulk, no rng).

        The static build context uses this to bypass per-add bookkeeping:
        the caller guarantees at most ``capacity`` distinct pids, so no
        overflow check (and no eviction draw) is needed. Raises
        :class:`MembershipError` when more entries than capacity are given.
        """
        entries = {d.pid: d for d in descriptors}
        if len(entries) > self.capacity:
            raise MembershipError(
                f"install of {len(entries)} entries exceeds view capacity "
                f"{self.capacity}"
            )
        self._entries = entries
        self._pid_list = None
        self._cache = None

    def remove(self, pid: int) -> bool:
        """Drop ``pid`` from the view; returns whether it was present."""
        if self._entries.pop(pid, None) is None:
            return False
        if self._pid_list is not None:
            self._pid_list.remove(pid)
        self._cache = None
        return True

    def replace(
        self,
        stale_pids: Iterable[int],
        fresh: Iterable[ProcessDescriptor],
        rng: random.Random | None = None,
    ) -> int:
        """The paper's MERGE (footnote 5): drop failed entries, then fill
        the freed capacity with fresh descriptors (favorites — existing live
        entries — are kept). Returns the number of fresh entries admitted."""
        for pid in stale_pids:
            self.remove(pid)
        admitted = 0
        for descriptor in fresh:
            if len(self._entries) >= self.capacity:
                break
            if descriptor.pid not in self._entries:
                self._entries[descriptor.pid] = descriptor
                if self._pid_list is not None:
                    self._pid_list.append(descriptor.pid)
                self._cache = None
                admitted += 1
        # rng kept in the signature for symmetry with merge(); no eviction
        # happens here because insertion stops at capacity.
        del rng
        return admitted

    def clear(self) -> None:
        """Empty the view."""
        self._entries.clear()
        self._pid_list = []
        self._cache = None

    def set_capacity(
        self, capacity: int, rng: random.Random | None = None
    ) -> None:
        """Resize the view (the table size tracks ``(b+1)·log S`` as the
        group grows). Shrinking evicts uniform random entries and needs an
        ``rng``; growing never drops anything."""
        if capacity < 1:
            raise ConfigError(f"view capacity must be >= 1, got {capacity}")
        while len(self._entries) > capacity:
            self._evict_uniform(
                rng, "shrinking below current size requires an rng"
            )
        self.capacity = capacity

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ProcessDescriptor]:
        return iter(self.descriptors())

    def __contains__(self, pid: int) -> bool:
        return pid in self._entries

    @property
    def is_full(self) -> bool:
        """Whether the view is at capacity."""
        return len(self._entries) >= self.capacity

    @property
    def pids(self) -> list[int]:
        """All member pids in insertion order (oldest first)."""
        return list(self._entries)

    def descriptors(self) -> tuple[ProcessDescriptor, ...]:
        """All entries in insertion order (oldest first), cached."""
        cache = self._cache
        if cache is None:
            cache = self._cache = tuple(self._entries.values())
        return cache

    def sample(
        self,
        k: int,
        rng: random.Random,
        exclude: Iterable[int] = (),
    ) -> list[ProcessDescriptor]:
        """Up to ``k`` distinct entries chosen uniformly, skipping ``exclude``.

        Fewer than ``k`` are returned when the view is too small — gossip
        fan-out degrades gracefully in small groups (Fig. 7 samples from
        ``Table - Ω``).

        Allocation-light: when no excluded pid is actually present in the
        view (the ubiquitous ``exclude=(self.pid,)`` case — a process never
        holds itself in its own table), sampling runs directly over the
        cached descriptor tuple without building a candidates list.
        """
        if k < 0:
            raise ConfigError(f"sample size must be >= 0, got {k}")
        entries = self._entries
        candidates: tuple[ProcessDescriptor, ...] | list[ProcessDescriptor]
        candidates = self.descriptors()
        if exclude:
            if not isinstance(exclude, (tuple, list, set, frozenset)):
                exclude = tuple(exclude)
            for pid in exclude:
                if pid in entries:
                    excluded = set(exclude)
                    candidates = [
                        d for d in candidates if d.pid not in excluded
                    ]
                    break
        n = len(candidates)
        if k >= n:
            return list(candidates)
        return sample_from(candidates, 0, n, k, rng)

    def sample_pids(
        self, k: int, rng: random.Random, exclude_pid: int | None = None
    ) -> list[int]:
        """The pids of ``sample(k, rng, exclude=(exclude_pid,))``, from the
        same draws, without touching a descriptor (Fig. 7 only ever needs
        the chosen pids)."""
        if k < 0:
            raise ConfigError(f"sample size must be >= 0, got {k}")
        pids = self._pid_list
        if pids is None:
            pids = self._pid_list = list(self._entries)
        if exclude_pid in self._entries:  # never, for a process's own table
            pids = [pid for pid in pids if pid != exclude_pid]
        n = len(pids)
        if k >= n:
            return list(pids)
        return sample_from(pids, 0, n, k, rng)

    def __repr__(self) -> str:
        return f"PartialView({len(self._entries)}/{self.capacity})"
