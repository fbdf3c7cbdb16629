"""Dynamic, weakly-consistent failures (Fig. 11).

Fig. 11 re-runs the reliability experiment with failures that are *not*
globally agreed upon: "a process can appear to be failed for a process
while appearing alive for another one (to simulate a weakly consistent
membership algorithm)". The paper reports much better reliability than the
stillborn case, because each transmission has an independent chance to get
through instead of a fixed subset of targets being permanently dead.

Two interpretations are provided (both keep every process ground-truth
alive and block *transmissions*):

* ``per_attempt`` (default): every transmission independently finds the
  target "failed" with probability ``fail_probability``. Failures are fully
  transient — the most optimistic reading, and the one that reproduces the
  figure's strong improvement over Fig. 10.
* ``per_pair``: each (sender, target) pair deterministically perceives the
  target as failed with probability ``fail_probability`` — observers hold
  fixed, mutually inconsistent opinions. Stronger than ``per_attempt``
  (a wrong opinion never heals) but still weaker than stillborn failures
  (other observers can still reach the target).
"""

from __future__ import annotations

import random
from typing import Literal

from repro.errors import ConfigError
from repro.sim.rng import derive_seed

Mode = Literal["per_attempt", "per_pair"]


class DynamicFailures:
    """Weakly-consistent failure perception; everyone is really alive."""

    def __init__(
        self,
        fail_probability: float,
        mode: Mode = "per_attempt",
        seed: int = 0,
    ):
        if not 0.0 <= fail_probability <= 1.0:
            raise ConfigError(
                f"fail_probability must be in [0,1], got {fail_probability}"
            )
        if mode not in ("per_attempt", "per_pair"):
            raise ConfigError(f"unknown mode {mode!r}")
        self.fail_probability = fail_probability
        self.mode = mode
        self._seed = seed

    def is_alive(self, pid: int, now: float) -> bool:
        return True

    def transmission_blocked(
        self, sender: int, target: int, now: float, rng: random.Random
    ) -> bool:
        if self.fail_probability == 0.0:
            return False
        if self.mode == "per_attempt":
            return rng.random() < self.fail_probability
        # per_pair: a deterministic coin per (sender, target) pair, so one
        # observer's opinion of a target never changes during the run.
        pair_seed = derive_seed(self._seed, f"pair/{sender}/{target}")
        return random.Random(pair_seed).random() < self.fail_probability
