"""Large-S columnar-backend bench: the paper's scale claims, measured.

`bench_sec6_memory_complexity` evaluates the §VI closed forms; this bench
actually *runs* a §VII-shaped static scenario at populations the object
backend cannot reach (its per-process object graph walls out around
S≈10⁴). Two measurements land in the benchmark's ``extra_info``:

* **bytes/process** — tracemalloc peak of the columnar build divided by
  the population, the measured counterpart of the O(k·(b+1)·log S)
  memory claim. The peak comes from a second, *untimed* build: the timed
  build runs untraced, because tracemalloc slows this allocation-heavy
  code ≈ 20× (S=10⁵: ≈ 0.9 s untraced vs ≈ 21 s traced) and a traced
  build's seconds say nothing about the build;
* **events/sec** — engine events processed per wall-clock second while
  one publication floods the full population, the simulator-throughput
  number that bounds every downstream sweep.

Population comes from ``REPRO_COLUMNAR_S`` (default 10⁵ locally; CI sets
2·10⁴ to stay inside the smoke-bench time budget). The scenario is the
golden shape scaled up: a supergroup of S/100 under ".t1" and the
S-process group under ".t1.t2", p_success=0.85.
"""

import os
import tracemalloc

from repro.core.columnar import ColumnarStaticSystem

S = int(os.environ.get("REPRO_COLUMNAR_S", "100000"))
SUPER_S = max(10, S // 100)


def build_system(seed: int = 9) -> ColumnarStaticSystem:
    system = ColumnarStaticSystem(seed=seed, p_success=0.85)
    system.add_group(".t1", SUPER_S)
    system.add_group(".t1.t2", S)
    system.finalize_static_membership()
    return system


def test_columnar_build_bytes_per_process(benchmark):
    """Membership construction at scale: build seconds from an untraced
    pass, the true memory peak from a separate traced one."""
    system = benchmark.pedantic(build_system, rounds=1, iterations=1)
    tracemalloc.start()
    try:
        traced = build_system()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    total = S + SUPER_S
    benchmark.extra_info["processes"] = total
    benchmark.extra_info["bytes_per_process"] = round(peak / total, 1)
    benchmark.extra_info["membership_bytes_per_process"] = round(
        system.membership_bytes() / total, 1
    )
    assert traced.membership_bytes() == system.membership_bytes()
    # tracemalloc peak stays within an order of magnitude of the frozen
    # columns themselves — no hidden object graph at scale.
    assert peak < 10 * system.membership_bytes() + 50_000_000


def test_columnar_publication_events_per_sec(benchmark):
    """One full-population publication flood through the block-actor
    delivery path, timed over the engine's processed-event count."""
    system = build_system()
    events = []

    def one_publication():
        before = system.engine.processed
        event = system.publish(".t1.t2")
        system.run_until_idle()
        events.append(event)
        # dedup bitmasks are per event id; drop the finished flood so
        # repeated rounds don't accumulate dead state
        for topic in (".t1", ".t1.t2"):
            system.group_actor(topic).release_event_state(event.event_id)
        return system.engine.processed - before

    processed = benchmark.pedantic(one_publication, rounds=2, iterations=1)
    benchmark.extra_info["events"] = processed
    benchmark.extra_info["population"] = S + SUPER_S
    # the flood really covered the population: every delivery is at least
    # one engine event, with gossip redundancy on top
    assert processed > S
    stats = system.tracker.topic_stats(events[-1].topic)
    assert stats.delivered >= len(events) * 0.9 * (S + SUPER_S)
    # streaming tracker held O(topics) state throughout
    assert system.tracker.state_size() <= 2
