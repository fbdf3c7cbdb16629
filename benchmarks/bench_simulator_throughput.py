"""Micro-benchmarks of the simulation substrate itself.

Unlike the figure benches (one-shot experiment harnesses), these use
pytest-benchmark's repeated rounds to track the raw speed of the pieces
every experiment pays for: engine event throughput, network transmission
pipeline, and one full §VII publication at paper scale. Regressions here
multiply into every sweep.
"""

import random

from repro.net import Network
from repro.net.message import Ping
from repro.sim import Engine
from repro.workloads import PaperScenario


def test_engine_event_throughput(benchmark):
    def run_10k_events():
        engine = Engine()
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                engine.schedule(1.0, tick)

        engine.schedule(1.0, tick)
        engine.run()
        return engine.processed

    processed = benchmark(run_10k_events)
    benchmark.extra_info["events"] = processed
    assert processed == 10_000


def test_network_pipeline_throughput(benchmark):
    class Sink:
        def __init__(self, pid):
            self.pid = pid
            self.received = 0

        def handle_message(self, message):
            self.received += 1

    def run_5k_sends():
        engine = Engine()
        network = Network(engine, random.Random(0), p_success=0.9)
        actors = [Sink(i) for i in range(10)]
        for actor in actors:
            network.register(actor)
        ping = Ping(sender=0, nonce=1)
        for i in range(5_000):
            network.send(0, 1 + (i % 9), ping)
        engine.run()
        return network.stats.total_sent

    sent = benchmark(run_5k_sends)
    benchmark.extra_info["events"] = sent
    assert sent == 5_000


def test_full_paper_publication(benchmark):
    scenario = PaperScenario()

    def one_publication():
        built = scenario.build(seed=7, alive_fraction=1.0)
        built.execute()
        return built.system.stats.event_messages_sent()

    messages = benchmark(one_publication)
    benchmark.extra_info["events"] = messages
    assert messages > 7000


def test_large_static_group_publication(benchmark):
    """The batched-transport stress case: one publication flooding a single
    static group of 5000 subscribers (70k transmissions, all zero-latency —
    every fan-out rides the multicast fast path and the engine's FIFO
    bucket). The build phase is excluded; this times the transport."""
    from repro.core.system import DaMulticastSystem

    system = DaMulticastSystem(seed=3, p_success=0.85, mode="static")
    system.add_group(".big", 5000)
    system.finalize_static_membership()
    published = []

    def one_publication():
        # Publications accumulate on the same built system; dedup state is
        # per event id, so each round floods the full group again.
        published.append(system.publish(".big"))
        system.run_until_idle()
        return system.stats.total_sent

    sent = benchmark(one_publication)
    # Rounds accumulate on one system, so report the per-round flood size.
    benchmark.extra_info["events"] = sent // max(1, len(published))
    assert sent >= 5000 * 10  # a real flood ran (fanout log10(5000)+5 ≈ 9)
