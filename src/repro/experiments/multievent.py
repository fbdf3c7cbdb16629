"""Steady-state workload experiment: a stream of publications.

The paper evaluates single publications; a deployment serves a *stream*
(the newsgroup workload its introduction motivates). This experiment
replays a Poisson stream over the paper hierarchy and measures what
amortizes and what doesn't:

* per-event message cost (should match the single-shot cost — infect-and-
  die gossip holds no shared state between events),
* delivery fraction per event (stability: no degradation over the stream),
* aggregate parasite count (stays zero whatever the mix of topics).
"""

from __future__ import annotations

import functools
import random
import statistics
from typing import Mapping

from repro.experiments.executor import ExecutorSpec
from repro.experiments.runner import (
    ProgressFn,
    SweepCell,
    grouped_progress,
    run_cells,
)
from repro.metrics.delivery import parasite_deliveries
from repro.metrics.report import Table
from repro.sim.rng import derive_seed
from repro.workloads.publications import PoissonSchedule, replay_on
from repro.workloads.scenarios import PaperScenario


def run_stream(
    *,
    scenario: PaperScenario | None = None,
    rate: float = 0.2,
    horizon: float = 100.0,
    seed: int = 0,
    publish_levels: tuple[int, ...] = (1, 2),
) -> Mapping[str, float]:
    """Replay one Poisson stream; return aggregate stream metrics."""
    scenario = scenario or PaperScenario(sizes=(5, 25, 120))
    built = scenario.build(seed=seed, alive_fraction=1.0)
    system = built.system
    topics = [built.compiled.ordered_topics[level] for level in publish_levels]
    schedule = PoissonSchedule(topics, rate=rate, horizon=horizon)
    publications = schedule.generate(random.Random(derive_seed(seed, "stream")))
    if not publications:
        return {
            "events": 0.0,
            "messages_per_event": 0.0,
            "mean_delivery": 1.0,
            "min_delivery": 1.0,
            "parasites": 0.0,
        }
    published = replay_on(system, publications)
    system.run_until_idle()

    fractions = []
    for event in published:
        subscribers = system.group_pids(event.topic)
        if subscribers:
            fractions.append(
                system.delivered_fraction(event, event.topic)
            )
    total_messages = system.stats.event_messages_sent()
    return {
        "events": float(len(published)),
        "messages_per_event": total_messages / len(published),
        "mean_delivery": statistics.fmean(fractions) if fractions else 1.0,
        "min_delivery": min(fractions) if fractions else 1.0,
        "parasites": float(
            parasite_deliveries(system.tracker, system.interests())
        ),
    }


def _stream_cell(
    rate: float,
    seed: int,
    *,
    scenario: PaperScenario | None,
    publish_levels: tuple[int, ...],
) -> Mapping[str, float]:
    return run_stream(
        scenario=scenario, rate=rate, seed=seed, publish_levels=publish_levels
    )


def stream_table(
    *,
    rates: tuple[float, ...] = (0.05, 0.2, 0.5),
    runs: int = 3,
    master_seed: int = 0,
    scenario: PaperScenario | None = None,
    publish_levels: tuple[int, ...] = (1, 2),
    executor: ExecutorSpec = None,
    progress: ProgressFn | None = None,
) -> Table:
    """Stream metrics across arrival rates (means over ``runs``).

    ``publish_levels`` picks which hierarchy levels publications land on;
    restrict it to a single level when comparing per-event costs across
    rates (mixed levels have legitimately different costs). ``executor``
    fans the (rate, run) cells over a parallel backend; the seed names
    match the serial loop's ``stream/{rate}/{j}`` derivation, so results
    are identical for every backend. ``progress`` is invoked once per
    completed rate as
    ``progress(rate, completed_rates, total_rates)``.
    """
    table = Table(
        "Steady-state stream — per-event cost and delivery vs arrival rate",
        [
            "rate",
            "events",
            "messages_per_event",
            "mean_delivery",
            "min_delivery",
            "parasites",
        ],
        precision=3,
    )
    cells = [
        SweepCell(
            arg=rate,
            seed_name=f"stream/{rate}/{j}",
            describe=f"rate={rate!r}, run={j}",
        )
        for rate in rates
        for j in range(runs)
    ]
    flat = run_cells(
        functools.partial(
            _stream_cell, scenario=scenario, publish_levels=publish_levels
        ),
        cells,
        master_seed=master_seed,
        executor=executor,
        on_result=grouped_progress(progress, list(rates), runs),
    )
    for index, rate in enumerate(rates):
        samples = flat[index * runs : (index + 1) * runs]
        table.add_row(
            rate,
            statistics.fmean(s["events"] for s in samples),
            statistics.fmean(s["messages_per_event"] for s in samples),
            statistics.fmean(s["mean_delivery"] for s in samples),
            min(s["min_delivery"] for s in samples),
            statistics.fmean(s["parasites"] for s in samples),
        )
    return table
