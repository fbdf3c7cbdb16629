"""Network partition models.

Not used by the paper's own figures, but required to exercise the protocol's
claimed resilience (no spanning-tree interior nodes to lose) and the
bootstrap search under partial connectivity. A partition model decides, per
(source, destination, time), whether the pair is currently connected.
"""

from __future__ import annotations

from typing import Iterable, Protocol

from repro.errors import ConfigError
from repro.validation import check_finite


class PartitionModel(Protocol):
    """Connectivity oracle consulted by the network for every send."""

    def connected(self, source: int, destination: int, now: float) -> bool:
        """Whether a message from ``source`` can currently reach ``destination``."""
        ...  # pragma: no cover - protocol


class FullyConnected:
    """The default: every pair of processes is always connected."""

    def connected(self, source: int, destination: int, now: float) -> bool:
        return True


class StaticPartition:
    """A set of disjoint islands, optionally healing at a fixed time.

    Processes not mentioned in any island form one implicit extra island.

    >>> p = StaticPartition([[1, 2], [3]], heals_at=100.0)
    >>> p.connected(1, 3, now=0.0)
    False
    >>> p.connected(1, 3, now=100.0)
    True
    """

    def __init__(
        self,
        islands: Iterable[Iterable[int]],
        heals_at: float | None = None,
    ):
        self._island_of: dict[int, int] = {}
        for index, island in enumerate(islands):
            for pid in island:
                if pid in self._island_of:
                    raise ConfigError(f"process {pid} appears in two islands")
                self._island_of[pid] = index
        if heals_at is not None:
            check_finite(heals_at, "heals_at")
        self.heals_at = heals_at

    def connected(self, source: int, destination: int, now: float) -> bool:
        if self.heals_at is not None and now >= self.heals_at:
            return True
        # Unmentioned processes share the implicit island -1.
        return self._island_of.get(source, -1) == self._island_of.get(destination, -1)
