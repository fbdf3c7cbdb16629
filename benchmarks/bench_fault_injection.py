"""Fault-layer overhead bench: the per-message cost of the fault hook.

The link-fault layer (:mod:`repro.net.faults`) sits on the hottest path
in the simulator — every ``send``/``multicast`` target consults it when a
model is installed. This bench measures both sides of that bargain at the
large-S columnar scale (``REPRO_COLUMNAR_S``, default 2·10⁴ here — the
CI smoke population, cheap enough for the per-PR trajectory):

* **no_faults** — the uninstalled hook: one publication flood with no
  fault model, the pre-existing fast path. Its events/sec is the
  baseline;
* **bernoulli_1pct** — the same flood through ``BernoulliLoss(0.01)``,
  the cheapest active model (one coin per target). The events/sec gap
  between the two IS the fault-layer tax; extra_info records both the
  loss count and the delivered fraction, tying the perf number to the
  graceful-degradation story it pays for.
"""

import os
import random

from repro.core.columnar import ColumnarStaticSystem
from repro.net.faults import BernoulliLoss
from repro.net.stats import FAULT_LOSS

S = int(os.environ.get("REPRO_COLUMNAR_S", "20000"))
SUPER_S = max(10, S // 100)


def build_system(seed: int = 9) -> ColumnarStaticSystem:
    system = ColumnarStaticSystem(seed=seed, p_success=1.0)
    system.add_group(".t1", SUPER_S)
    system.add_group(".t1.t2", S)
    system.finalize_static_membership()
    return system


def flood_once(system) -> int:
    before = system.engine.processed
    event = system.publish(".t1.t2")
    system.run_until_idle()
    for topic in (".t1", ".t1.t2"):
        system.group_actor(topic).release_event_state(event.event_id)
    return system.engine.processed - before


def test_fault_hook_uninstalled(benchmark):
    """Baseline flood: no fault model, the zero-draw fast path."""
    system = build_system()
    processed = benchmark.pedantic(
        lambda: flood_once(system), rounds=2, iterations=1
    )
    benchmark.extra_info["events"] = processed
    benchmark.extra_info["population"] = S + SUPER_S
    benchmark.extra_info["fault_losses"] = 0
    assert system.network.faults is None
    assert processed > S


def test_fault_hook_bernoulli_1pct(benchmark):
    """The same flood through a 1% Bernoulli loss coin per link."""
    system = build_system()
    system.network.install_faults(BernoulliLoss(0.01), random.Random(17))
    processed = benchmark.pedantic(
        lambda: flood_once(system), rounds=2, iterations=1
    )
    losses = system.stats.faults_by_reason[FAULT_LOSS]
    delivered = system.tracker.deliveries
    benchmark.extra_info["events"] = processed
    benchmark.extra_info["population"] = S + SUPER_S
    benchmark.extra_info["fault_losses"] = losses
    benchmark.extra_info["delivered_fraction_vs_population"] = round(
        delivered / (2 * (S + SUPER_S)), 4
    )
    # the coin really fired (~1% of sends), and gossip redundancy kept
    # the flood near-complete anyway — graceful degradation at scale
    assert losses > 0
    assert delivered > 2 * 0.9 * (S + SUPER_S)
