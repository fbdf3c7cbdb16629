"""§VI-E.2 — memory complexity, measured table sizes vs the paper's claims.

Paper: "the maximal number of membership tables in daMulticast is 2 (and 1
if the process is interested in the root topic). This number does not
depend upon the number of topics a process is interested in, when these
include one another."
"""

from repro.analysis import (
    broadcast_memory,
    damulticast_memory,
    hierarchical_memory,
    multicast_memory,
)
from repro.metrics.report import Table
from repro.workloads import PaperScenario

SCENARIO = PaperScenario()


def build_and_measure():
    """Build the §VII system and measure actual per-process table state."""
    built = SCENARIO.build(seed=7, alive_fraction=1.0)
    system = built.system
    table = Table(
        "§VI-E.2 measured memory (entries and tables per process)",
        ["group", "group_size", "mean_entries", "max_entries", "tables"],
        precision=2,
    )
    for topic, size in zip(built.compiled.ordered_topics, SCENARIO.sizes):
        members = system.group(topic)
        entries = [p.memory_footprint for p in members]
        tables = [1 if p.super_table.is_empty else 2 for p in members]
        table.add_row(
            topic.name,
            size,
            sum(entries) / len(entries),
            max(entries),
            max(tables),
        )
    return table, system, built


def test_memory_complexity(benchmark, emit):
    table, system, built = benchmark.pedantic(
        build_and_measure, rounds=1, iterations=1
    )
    emit(table, "sec6_memory_measured")

    rows = {row["group"]: row for row in table.as_dicts()}
    topics = built.compiled.ordered_topics

    # Root processes: exactly 1 table; everyone else: exactly 2.
    assert rows["."]["tables"] == 1
    assert rows[topics[1].name]["tables"] == 2
    assert rows[topics[2].name]["tables"] == 2

    # Measured entries stay within (b+1)log10(S) + z for every process.
    params = SCENARIO.params()
    for topic, size in zip(topics, SCENARIO.sizes):
        bound = params.table_capacity(size) + params.z
        assert rows[topic.name]["max_entries"] <= bound

    # Closed-form ordering (§VI-E.2): daMulticast's per-process memory is
    # below multicast (b) and hierarchical (c) for the paper scenario.
    sizes = list(reversed(SCENARIO.sizes))
    ours = damulticast_memory(max(sizes), c=SCENARIO.c, z=SCENARIO.z)
    closed = Table(
        "§VI-E.2 closed forms (natural logs)",
        ["algorithm", "memory_per_process"],
    )
    closed.add_row("daMulticast", ours)
    closed.add_row("broadcast (a)", broadcast_memory(sum(sizes), c=SCENARIO.c))
    closed.add_row("multicast (b)", multicast_memory(sizes, c=SCENARIO.c))
    closed.add_row(
        "hierarchical (c)", hierarchical_memory(10, 111, c1=SCENARIO.c, c2=SCENARIO.c)
    )
    emit(closed, "sec6_memory_closed_forms")
    values = {row["algorithm"]: row["memory_per_process"] for row in closed.as_dicts()}
    assert values["daMulticast"] < values["multicast (b)"]
    assert values["daMulticast"] < values["hierarchical (c)"]
