"""§VI-E measured comparisons: all four algorithms on one scenario.

For each algorithm — daMulticast and baselines (a), (b), (c) — one
publication is simulated on an identical substrate (same sizes, channel
loss, seed discipline) and we measure what §VI-E tabulates:

* total event messages sent (message complexity),
* per-process membership entries and table counts (memory complexity),
* delivery among the interested processes (reliability),
* parasite deliveries (the efficiency property daMulticast guarantees).
"""

from __future__ import annotations

import functools
from typing import Mapping

from repro.experiments.executor import ExecutorSpec
from repro.experiments.runner import (
    ProgressFn,
    SweepCell,
    aggregate_runs,
    grouped_progress,
    run_cells,
)
from repro.metrics.delivery import delivered_fraction, parasite_deliveries
from repro.metrics.report import Table
from repro.sim.rng import derive_seed
from repro.workloads.scenarios import PaperScenario
from repro.workloads.spec import compile_spec_cached


def _measure(system, event, topics) -> dict[str, float]:
    """What §VI-E tabulates for ``system`` once ``event``'s flood is over,
    read off its member records, ``interests()`` and tracker alike for
    every algorithm."""
    interests = system.interests()
    includes = system.hierarchy.includes
    interested_pids = [
        pid for pid, topic in interests.items() if includes(topic, event.topic)
    ]
    members = system.processes
    footprints = [member.memory_footprint for member in members]
    metrics = {
        "event_messages": float(system.stats.event_messages_sent()),
        "memory_mean": sum(footprints) / len(footprints),
        "memory_max": float(max(footprints)),
        "tables_max": float(max(member.table_count for member in members)),
        "delivered_interested": delivered_fraction(
            system.tracker, event.event_id, interested_pids
        ),
    }
    # Parasite check: publish on a *mid-level* topic — subscribers of its
    # subtopics are NOT interested, so broadcast-style algorithms leak.
    if len(topics) > 1:
        system.publish(topics[1])
        system.run_until_idle()
    metrics["parasites"] = float(parasite_deliveries(system.tracker, interests))
    return metrics


def _measure_damulticast(
    scenario: PaperScenario, seed: int
) -> Mapping[str, float]:
    built = scenario.build(seed=seed, alive_fraction=1.0)
    built.execute()
    return _measure(built.system, built.published[0], built.compiled.ordered_topics)


def _measure_baseline(
    scenario: PaperScenario, protocol: str, seed: int
) -> Mapping[str, float]:
    spec = {**scenario.spec(), "protocol": protocol, "failures": {"kind": "none"}}
    system = compile_spec_cached(spec).build(seed).system
    topics = scenario.topics()
    event = system.publish(topics[scenario.publish_level])
    system.run_until_idle()
    return _measure(system, event, topics)


def run_all_algorithms_once(
    scenario: PaperScenario, seed: int
) -> dict[str, Mapping[str, float]]:
    """One measured run of all four algorithms with aligned settings."""
    return {
        "daMulticast": _measure_damulticast(scenario, seed),
        "broadcast (a)": _measure_baseline(
            scenario, "broadcast", derive_seed(seed, "a")
        ),
        "multicast (b)": _measure_baseline(
            scenario, "multicast", derive_seed(seed, "b")
        ),
        "hierarchical (c)": _measure_baseline(
            scenario, "hierarchical", derive_seed(seed, "c")
        ),
    }


def _comparison_cell(
    _point: int, seed: int, *, scenario: PaperScenario
) -> dict[str, Mapping[str, float]]:
    return run_all_algorithms_once(scenario, seed)


def measured_comparison(
    *,
    scenario: PaperScenario | None = None,
    runs: int = 3,
    master_seed: int = 0,
    executor: ExecutorSpec = None,
    progress: ProgressFn | None = None,
) -> Table:
    """The §VI-E table, measured: one row per algorithm (means over runs).

    ``executor`` runs the repetitions on a parallel backend; seed names
    match the serial ``comparison/{j}`` derivation, so the table is
    identical for every backend. ``progress`` is invoked per completed
    repetition as ``progress(run_index, completed_runs, total_runs)``.
    """
    scenario = scenario or PaperScenario()
    cells = [
        SweepCell(arg=j, seed_name=f"comparison/{j}", describe=f"run={j}")
        for j in range(runs)
    ]
    per_run = run_cells(
        functools.partial(_comparison_cell, scenario=scenario),
        cells,
        master_seed=master_seed,
        executor=executor,
        on_result=grouped_progress(
            progress, [float(j) for j in range(runs)], 1
        ),
    )
    per_algorithm: dict[str, list[Mapping[str, float]]] = {}
    for result in per_run:
        # repro-lint: allow[DET003]: each per-run dict lists algorithms in the fixed _comparison_cell construction order
        for name, metrics in result.items():
            per_algorithm.setdefault(name, []).append(metrics)

    table = Table(
        "§VI-E measured comparison (means over "
        f"{runs} runs; publication on the bottom topic)",
        [
            "algorithm",
            "event_messages",
            "memory_mean",
            "memory_max",
            "tables_max",
            "delivered_interested",
            "parasites",
        ],
        precision=2,
    )
    for name, samples in per_algorithm.items():
        means, _ = aggregate_runs(samples)
        table.add_row(
            name,
            means["event_messages"],
            means["memory_mean"],
            means["memory_max"],
            means["tables_max"],
            means["delivered_interested"],
            means["parasites"],
        )
    return table
