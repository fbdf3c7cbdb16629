"""Stillborn failures: a fixed set of processes dead from time zero.

This reproduces the §VII setting of Figs. 8–10: "these [processes] fail at
the very beginning" and "the membership algorithm does not replace a failed
process" — the static tables keep pointing at corpses, so gossip fan-out is
effectively reduced by the failure fraction.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.errors import ConfigError


class StillbornFailures:
    """Processes in ``failed`` are dead for the whole run; others never fail."""

    def __init__(self, failed: Iterable[int]):
        self._failed = frozenset(failed)
        #: the declaration of :mod:`repro.failures.model`: the dead set is
        #: fixed for the run and perception equals ground truth
        self.static_dead = self._failed

    @property
    def failed(self) -> frozenset[int]:
        """The set of stillborn process ids."""
        return self._failed

    def is_alive(self, pid: int, now: float) -> bool:
        return pid not in self._failed

    def transmission_blocked(
        self, sender: int, target: int, now: float, rng: random.Random
    ) -> bool:
        # Perception matches ground truth: dead targets are handled by the
        # network's is_alive check, nothing extra to block here.
        return False

    def __repr__(self) -> str:
        return f"StillbornFailures({len(self._failed)} failed)"


def sample_stillborn(
    pids: Sequence[int],
    alive_fraction: float,
    rng: random.Random,
    protected: Iterable[int] = (),
) -> StillbornFailures:
    """Kill a uniform random ``1 - alive_fraction`` of ``pids`` at t=0.

    ``protected`` processes (e.g. the publisher — the paper publishes from
    an alive process) are never selected. This is the x-axis generator of
    Figs. 8–11: each figure sweeps ``alive_fraction`` over [0, 1].
    """
    if not 0.0 <= alive_fraction <= 1.0:
        raise ConfigError(f"alive_fraction must be in [0,1], got {alive_fraction}")
    protected_set = set(protected)
    candidates = [pid for pid in pids if pid not in protected_set]
    n_failed = round(len(pids) * (1.0 - alive_fraction))
    n_failed = min(n_failed, len(candidates))
    failed = rng.sample(candidates, n_failed)
    return StillbornFailures(failed)
