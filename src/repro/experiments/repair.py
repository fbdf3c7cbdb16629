"""Repair experiment: what the paper's frozen-membership assumption costs.

§VII states: "Pessimistically, we assume that the membership algorithm
does not 'replace' a failed process" — Figs. 8–10 freeze all tables and
let dead entries rot in them. The full protocol is better than that: the
flat membership evicts unresponsive partners, KEEP_TABLE_UPDATED refreshes
supertopic tables, and FIND_SUPER_CONTACT re-bootstraps lost links.

This experiment quantifies the gap. For the same failure fraction:

* **frozen** — the paper's setting: stillborn failures, static tables,
  publish immediately;
* **repaired** — the dynamic protocol: converge, crash the same fraction
  at runtime, give maintenance a repair window, then publish.

The repaired system should recover most of the failure-free delivery
among survivors, because its tables point (almost) only at live peers.
"""

from __future__ import annotations

import functools
import random
import statistics
from typing import Mapping

from repro.core.params import DaMulticastConfig, TopicParams
from repro.core.system import DaMulticastSystem
from repro.experiments.executor import ExecutorSpec
from repro.experiments.runner import (
    ProgressFn,
    SweepCell,
    grouped_progress,
    run_cells,
)
from repro.failures.churn import ChurnSchedule
from repro.metrics.report import Table
from repro.sim.rng import derive_seed
from repro.topics.builders import chain
from repro.workloads.scenarios import PaperScenario, delivered_fractions


#: the default scenario, and what ``repro repair --sizes`` resizes: kept
#: small because the repaired half runs the full dynamic protocol
REPAIR_SCENARIO = PaperScenario(sizes=(4, 12, 48), p_succ=0.9)

#: the repaired run's phases: convergence before the crash wave, then the
#: window maintenance gets to repair in before the publication
SETTLE_TIME = 30.0
REPAIR_WINDOW = 60.0


def _frozen_run(
    scenario: PaperScenario, alive_fraction: float, seed: int
) -> Mapping[str, float]:
    built = scenario.build(
        seed=seed, alive_fraction=alive_fraction, failure_mode="stillborn"
    )
    built.execute()
    fractions = delivered_fractions(built, alive_only=True)
    return {
        "bottom": fractions[built.published[0].topic],
        "root": fractions[built.compiled.ordered_topics[0]],
    }


def _repaired_run(
    scenario: PaperScenario,
    alive_fraction: float,
    seed: int,
) -> Mapping[str, float]:
    topics = chain(scenario.depth, prefix="t")
    churn = ChurnSchedule()
    config = DaMulticastConfig(
        default_params=TopicParams(
            b=scenario.b,
            c=scenario.c,
            g=max(scenario.g, 10),  # probe often enough to repair in time
            a=scenario.a,
            z=scenario.z,
            fanout_log_base=scenario.fanout_log_base,
        ),
        maintain_interval=1.0,
        ping_timeout=0.5,
        bootstrap_timeout=2.0,
    )
    system = DaMulticastSystem(
        config=config,
        seed=seed,
        p_success=scenario.p_succ,
        mode="dynamic",
        failure_model=churn,
    )
    for topic, size in zip(topics, scenario.sizes):
        system.add_group(topic, size)
    system.run(until=SETTLE_TIME)

    # Crash the same fraction the frozen variant suffers, at runtime.
    rng = random.Random(derive_seed(seed, "repair-victims"))
    pids = [p.pid for p in system.processes]
    publish_topic = topics[scenario.publish_level]
    publisher_pid = rng.choice(system.group_pids(publish_topic))
    candidates = [pid for pid in pids if pid != publisher_pid]
    n_failed = min(
        round(len(pids) * (1.0 - alive_fraction)), len(candidates)
    )
    for pid in rng.sample(candidates, n_failed):
        churn.crash_at(pid, SETTLE_TIME)

    system.run(until=SETTLE_TIME + REPAIR_WINDOW)
    event = system.publish(
        publish_topic, publisher=system.process(publisher_pid)
    )
    system.run(until=SETTLE_TIME + REPAIR_WINDOW + 30.0)
    return {
        "bottom": system.delivered_fraction(
            event, publish_topic, alive_only=True
        ),
        "root": system.delivered_fraction(event, topics[0], alive_only=True),
    }


def _repair_cell(
    mode: str, seed: int, *, scenario: PaperScenario, alive_fraction: float
) -> Mapping[str, float]:
    if mode == "frozen":
        return _frozen_run(scenario, alive_fraction, seed)
    return _repaired_run(scenario, alive_fraction, seed)


def repair_comparison(
    *,
    alive_fraction: float = 0.6,
    runs: int = 4,
    master_seed: int = 0,
    scenario: PaperScenario | None = None,
    executor: ExecutorSpec = None,
    progress: ProgressFn | None = None,
) -> Table:
    """Frozen vs repaired delivery among survivors, same failure fraction.

    Both modes of repetition ``j`` share ``derive_seed(master_seed,
    f"repair/{j}")`` — the comparison is paired — and ``executor`` fans
    the 2·runs cells over a parallel backend without changing any seed.
    ``progress`` fires once per completed (frozen, repaired) pair.
    """
    scenario = scenario or REPAIR_SCENARIO
    cells = [
        SweepCell(
            arg=mode, seed_name=f"repair/{j}", describe=f"mode={mode}, run={j}"
        )
        for j in range(runs)
        for mode in ("frozen", "repaired")
    ]
    flat = run_cells(
        functools.partial(
            _repair_cell, scenario=scenario, alive_fraction=alive_fraction
        ),
        cells,
        master_seed=master_seed,
        executor=executor,
        on_result=grouped_progress(progress, list(range(runs)), 2),
    )
    rows: dict[str, list[Mapping[str, float]]] = {
        "frozen": flat[0::2],
        "repaired": flat[1::2],
    }
    table = Table(
        "Frozen membership (paper's pessimistic §VII setting) vs live "
        f"repair — delivery among survivors at alive={alive_fraction}",
        ["mode", "bottom_delivery", "root_delivery"],
        precision=3,
    )
    for mode, samples in rows.items():
        table.add_row(
            mode,
            statistics.fmean(s["bottom"] for s in samples),
            statistics.fmean(s["root"] for s in samples),
        )
    return table
