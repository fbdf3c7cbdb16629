"""§IV-A — publisher load: the naive pattern (2) vs daMulticast.

Paper: "The second solution has the disadvantage to overload the
publishers (they must publish in several groups)" and makes them single
points of failure; "In our algorithm, we consider an optimized variant of
the second pattern to achieve a better load distribution."

The measurement: per-event messages transmitted *by the publisher* and by
the busiest process, under the same scenario. In the naive pattern the
publisher pays ``Σ_i fanout(S_i)`` per event; in daMulticast it pays one
group's fan-out plus at most ``z`` hand-offs, and the remaining upward
work is spread over self-elected links.
"""

from repro.baselines.naive_publisher import NaivePublisherSystem
from repro.metrics.report import Table
from repro.sim.rng import derive_seed
from repro.workloads import PaperScenario
from repro.workloads.scenarios import delivered_fractions

SCENARIO = PaperScenario(p_succ=1.0)
RUNS = 3


def measure_damulticast(seed: int) -> dict:
    built = SCENARIO.build(seed=seed, alive_fraction=1.0)
    built.execute()
    stats = built.system.stats
    publisher = built.publishers[built.schedule[0].topic].pid
    return {
        "publisher_load": stats.sender_load(publisher),
        "max_load": stats.max_sender_load(),
        "publisher_tables": 2,
        "delivered_root": delivered_fractions(built)[
            built.compiled.ordered_topics[0]
        ],
    }


def measure_naive(seed: int) -> dict:
    system = NaivePublisherSystem(
        seed=seed,
        p_success=SCENARIO.p_succ,
        b=SCENARIO.b,
        c=SCENARIO.c,
        log_base=SCENARIO.fanout_log_base,
    )
    topics = SCENARIO.topics()
    for topic, size in zip(topics, SCENARIO.sizes):
        system.add_group(topic, size)
    system.finalize_membership()
    publisher = system.group(topics[-1])[0]
    system.publish(topics[-1], publisher=publisher)
    system.run_until_idle()
    root_subscribers = [p.pid for p in system.group(topics[0])]
    receivers = system.tracker.receivers(
        system.tracker.events[0].event_id
    )
    delivered_root = sum(
        1 for pid in root_subscribers if pid in receivers
    ) / len(root_subscribers)
    return {
        "publisher_load": system.stats.sender_load(publisher.pid),
        "max_load": system.stats.max_sender_load(),
        "publisher_tables": publisher.table_count,
        "delivered_root": delivered_root,
    }


def build_table() -> Table:
    table = Table(
        "§IV-A publisher load — naive pattern (2) vs daMulticast "
        f"(means over {RUNS} runs, publication on T2)",
        [
            "algorithm",
            "publisher_load",
            "max_load",
            "publisher_tables",
            "delivered_root",
        ],
        precision=2,
    )
    for name, measure in (
        ("daMulticast", measure_damulticast),
        ("naive pattern (2)", measure_naive),
    ):
        samples = [
            measure(derive_seed(0, f"load/{name}/{j}")) for j in range(RUNS)
        ]
        table.add_row(
            name,
            sum(s["publisher_load"] for s in samples) / RUNS,
            sum(s["max_load"] for s in samples) / RUNS,
            sum(s["publisher_tables"] for s in samples) / RUNS,
            sum(s["delivered_root"] for s in samples) / RUNS,
        )
    return table


def test_load_distribution(benchmark, emit):
    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    emit(table, "sec4_load_distribution")

    rows = {row["algorithm"]: row for row in table.as_dicts()}
    ours = rows["daMulticast"]
    naive = rows["naive pattern (2)"]

    # Both deliver to the root...
    assert ours["delivered_root"] >= 0.9
    assert naive["delivered_root"] >= 0.9
    # ...but the naive publisher carries the whole hierarchy's injection:
    # fanout(1000)+fanout(100)+fanout(10) = 8+7+6 = 21 transmissions vs
    # daMulticast's 8 + (at most z=3).
    assert naive["publisher_load"] >= ours["publisher_load"] + 5
    # And it needs one membership table per level instead of two.
    assert naive["publisher_tables"] == 3
    assert ours["publisher_tables"] == 2