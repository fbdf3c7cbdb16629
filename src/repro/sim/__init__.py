"""Deterministic discrete-event simulation kernel.

The paper's evaluation ran on a custom C# simulator executing synchronous
gossip rounds. This package provides the Python substitute: a deterministic
event-driven engine (:class:`~repro.sim.engine.Engine`) on which gossip
rounds, periodic protocol tasks and message deliveries are all scheduled
events. Determinism is guaranteed by :class:`~repro.sim.rng.RngRegistry`:
every component draws from its own named stream derived from one master
seed, so runs are reproducible bit-for-bit and independent components do not
perturb each other's random sequences.
"""

from repro.sim.engine import Engine, EventHandle, PeriodicTask
from repro.sim.rng import RngRegistry, derive_seed, spawn_seeds

__all__ = [
    "Engine",
    "EventHandle",
    "PeriodicTask",
    "RngRegistry",
    "derive_seed",
    "spawn_seeds",
]
