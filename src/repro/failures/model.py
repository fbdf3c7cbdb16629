"""The failure-model interface consulted by the network.

A failure model answers two distinct questions:

* :meth:`FailureModel.is_alive` — ground truth: is the process actually up
  at time ``now``? (Dead targets drop incoming messages; dead senders
  should not be sending, and the network guards against it.)
* :meth:`FailureModel.transmission_blocked` — perception: does *this
  particular transmission* fail because the target looks failed from the
  sender's side? This is the hook used by Fig. 11's weakly-consistent
  failures, where the ground truth says "alive" but individual views
  disagree.

A model *may* also declare ``static_dead``, a ``frozenset`` of pids, and by
declaring it promises three things: ``is_alive(pid, now)`` is
``pid not in static_dead`` at every ``now`` (the dead set never changes),
``transmission_blocked`` is always ``False`` (perception equals ground
truth), and neither draws randomness. That is all the network's clean
channel needs to know about failures (:mod:`repro.net.network`), so such a
model is answered by set membership — once per fan-out, no call per target.
The network reads the attribute once, when the model is installed
(``Network(failure_model=...)`` or ``network.failure_model = ...``).
:class:`AlwaysAlive` declares the empty set,
:class:`~repro.failures.stillborn.StillbornFailures` its failed set; a model
without the attribute (churn, perceived failures, anything user-defined) is
consulted call by call on the general channel.
"""

from __future__ import annotations

import random
from typing import Protocol, runtime_checkable


@runtime_checkable
class FailureModel(Protocol):
    """Oracle for process liveness and per-transmission perception."""

    def is_alive(self, pid: int, now: float) -> bool:
        """Ground-truth liveness of ``pid`` at time ``now``."""
        ...  # pragma: no cover - protocol

    def transmission_blocked(
        self, sender: int, target: int, now: float, rng: random.Random
    ) -> bool:
        """Whether this transmission is lost to a perceived failure."""
        ...  # pragma: no cover - protocol


class AlwaysAlive:
    """The failure-free model (default)."""

    #: nobody is ever dead (see the module docstring for what this declares)
    static_dead: frozenset[int] = frozenset()

    def is_alive(self, pid: int, now: float) -> bool:
        return True

    def transmission_blocked(
        self, sender: int, target: int, now: float, rng: random.Random
    ) -> bool:
        return False
