"""Transport batching — events/sec of the legacy send loop vs multicast.

Not a paper figure: this bench guards the PR that made fan-out the
transport's first-class primitive. Both paths still exist on
:class:`~repro.net.network.Network` (``send`` drives singles, ``multicast``
drives fan-outs), so old-vs-new is measured inside one process:

* **net layer** — one sender fanning out to ``log10(S)+5`` targets per
  step over a lossy zero-latency channel at S ∈ {100, 1000, 5000}, as a
  ``send`` loop vs one ``multicast`` call per step;
* **system layer** — a full §VII-style publication in a single static
  group of S processes (the batched protocol path end to end), reported
  as transport events/sec.

The batched path must stay comfortably ahead of the loop (the PR measured
≈3–4.5× end to end); the assertion uses a conservative 1.4× floor so CI
noise cannot flake it.
"""

import math
import random
import time

from repro.core.process import ProcessBlock
from repro.core.system import DaMulticastSystem
from repro.metrics.report import Table
from repro.net import Network
from repro.net.control import Ping
from repro.sim import Engine

SIZES = (100, 1000, 5000)
STEPS = 2_000  # fan-out steps per net-layer measurement


class Sink:
    __slots__ = ("pid", "received")

    def __init__(self, pid):
        self.pid = pid
        self.received = 0

    def handle_message(self, message):
        self.received += 1


def _net_layer_rate(size: int, batched: bool) -> tuple[float, int]:
    """Events/sec of STEPS fan-outs over a lossy channel, and the count."""
    engine = Engine()
    network = Network(engine, random.Random(0), p_success=0.85)
    # per-pid sinks join as one block, the way dynamic processes do
    network.register_block(
        ProcessBlock({pid: Sink(pid) for pid in range(size)}), 0, size
    )
    fanout = math.ceil(math.log10(size) + 5)
    picker = random.Random(1)
    fanouts = [
        picker.sample(range(1, size), fanout) for _ in range(STEPS)
    ]
    ping = Ping(sender=0, nonce=1)
    start = time.perf_counter()
    if batched:
        for targets in fanouts:
            network.multicast(0, targets, ping)
    else:
        for targets in fanouts:
            for target in targets:
                network.send(0, target, ping)
    engine.run()
    elapsed = time.perf_counter() - start
    sent = network.stats.total_sent
    return sent / elapsed, sent


def _system_layer_rate(size: int) -> tuple[float, int]:
    """Events/sec of one full publication in a static group of ``size``."""
    system = DaMulticastSystem(seed=3, p_success=0.85, mode="static")
    system.add_group(".big", size)
    system.finalize_static_membership()
    start = time.perf_counter()
    system.publish(".big")
    system.run_until_idle()
    elapsed = time.perf_counter() - start
    sent = system.stats.total_sent
    return sent / elapsed, sent


def test_transport_batching(benchmark, emit):
    def run():
        table = Table(
            "transport batching: events/sec, send loop vs multicast",
            [
                "S",
                "fanout_evps_loop",
                "fanout_evps_multicast",
                "speedup",
                "publication_evps",
                "publication_events",
            ],
            precision=1,
        )
        for size in SIZES:
            loop_rate, loop_sent = _net_layer_rate(size, batched=False)
            batch_rate, batch_sent = _net_layer_rate(size, batched=True)
            assert loop_sent == batch_sent  # identical trajectories
            publication_rate, publication_sent = _system_layer_rate(size)
            table.add_row(
                size,
                loop_rate,
                batch_rate,
                batch_rate / loop_rate,
                publication_rate,
                publication_sent,
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(table, "transport_batching")

    for row in table.as_dicts():
        # The batched path must beat the per-target loop decisively at
        # every scale (measured ≈2–3× at the net layer; floor guards CI).
        assert row["speedup"] >= 1.4, (
            f"S={row['S']}: multicast only {row['speedup']:.2f}x over loop"
        )
        # Sanity: the publication actually exercised a real fan-out volume.
        assert row["publication_events"] >= row["S"] * 5
