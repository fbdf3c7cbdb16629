"""Weakly-consistent global bootstrap overlay.

Fig. 4's FIND_SUPER_CONTACT floods ``REQCONTACT`` messages over
``neighborhood(p)`` — "the nearest set of reachable processes from a
process" — provided by a *weakly consistent global membership* (§V-A.2.a:
"this bootstrapping technique and algorithm relies here only on a weakly
consistent global membership"). This module implements that substrate: each
process holds ``degree`` uniformly random global contacts, drawn once and
never repaired, so entries may point at dead processes (exactly the
weak-consistency the paper tolerates).
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.errors import ConfigError, UnknownActor
from repro.membership.sampling import sample_from
from repro.membership.view import ProcessDescriptor


class BootstrapOverlay:
    """A static random contact graph over all processes in the system."""

    def __init__(self, degree: int = 5):
        if degree < 1:
            raise ConfigError(f"overlay degree must be >= 1, got {degree}")
        self.degree = degree
        self._contacts: dict[int, list[ProcessDescriptor]] = {}
        self._descriptors: dict[int, ProcessDescriptor] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def populate(
        self, descriptors: Iterable[ProcessDescriptor], rng: random.Random
    ) -> None:
        """(Re)build the contact graph over ``descriptors``.

        Every process receives ``min(degree, n-1)`` distinct uniform
        contacts. Contacts are directed (the graph is not symmetrized),
        matching a gossip-built overlay.
        """
        population = list(descriptors)
        self._descriptors = {d.pid: d for d in population}
        self._contacts.clear()
        n = len(population)
        if len(self._descriptors) == n:
            # Unique pids (the normal case): draw *positions* in the
            # member-removed list and map them back with index arithmetic
            # (r below the member's index, r+1 at or above it). Same
            # draws as sampling an explicit exclusion list — sample() is
            # purely positional — without materialising an O(n) list per
            # member, which made this build O(n²).
            k = min(self.degree, n - 1)
            for index, descriptor in enumerate(population):
                self._contacts[descriptor.pid] = [
                    population[r if r < index else r + 1]
                    for r in sample_from(None, 0, n - 1, k, rng)
                ] if k else []
        else:
            # Duplicate pids: keep the historical every-occurrence
            # exclusion semantics.
            for descriptor in population:
                others = [d for d in population if d.pid != descriptor.pid]
                k = min(self.degree, len(others))
                self._contacts[descriptor.pid] = (
                    sample_from(others, 0, len(others), k, rng) if k else []
                )

    def add_process(
        self, descriptor: ProcessDescriptor, rng: random.Random
    ) -> None:
        """Insert one late-joining process with fresh contacts.

        The joiner gets ``degree`` contacts; ``degree`` random existing
        processes learn about the joiner (so it is reachable by floods).
        """
        existing = list(self._descriptors.values())
        self._descriptors[descriptor.pid] = descriptor
        n = len(existing)
        k = min(self.degree, n)
        self._contacts[descriptor.pid] = (
            sample_from(existing, 0, n, k, rng) if k else []
        )
        for other in sample_from(existing, 0, n, k, rng) if k else []:
            contacts = self._contacts.setdefault(other.pid, [])
            contacts.append(descriptor)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def neighborhood(self, pid: int) -> list[ProcessDescriptor]:
        """The paper's ``neighborhood(p)``: this process's global contacts."""
        try:
            return list(self._contacts[pid])
        except KeyError:
            raise UnknownActor(f"pid {pid} is not in the overlay") from None

    def descriptor(self, pid: int) -> ProcessDescriptor:
        """The descriptor registered for ``pid``."""
        try:
            return self._descriptors[pid]
        except KeyError:
            raise UnknownActor(f"pid {pid} is not in the overlay") from None

    def __contains__(self, pid: int) -> bool:
        return pid in self._contacts

    def __len__(self) -> int:
        return len(self._contacts)

    def __repr__(self) -> str:
        return f"BootstrapOverlay({len(self)} processes, degree={self.degree})"
