"""Ablations over the tuning knobs the paper highlights.

§VII closes with: "To achieve better reliability, we can easily adjust
z_Ti, p_a^Ti and g_Ti." These sweeps quantify that trade-off — measured
root-group reliability and inter-group traffic as the link-redundancy
parameters (g, a, z) and the fan-out constant c vary.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import Mapping, Sequence

from repro.analysis.reliability import (
    atomic_gossip_reliability,
    damulticast_reliability,
)
from repro.experiments.executor import ExecutorSpec
from repro.experiments.runner import ProgressFn, run_sweep
from repro.metrics.report import Table
from repro.workloads.scenarios import (
    PaperScenario,
    delivered_fractions,
    inter_group_messages,
)


def _run_with_scenario(
    scenario: PaperScenario, seed: int, alive_fraction: float
) -> Mapping[str, float]:
    built = scenario.build(seed=seed, alive_fraction=alive_fraction)
    metrics = built.execute()
    fractions = delivered_fractions(built)
    inter_total = sum(inter_group_messages(built).values())
    return {
        "received_root": fractions[built.compiled.ordered_topics[0]],
        "received_bottom": fractions[built.published[0].topic],
        "inter_messages": float(inter_total),
        "event_messages": metrics["event_messages"],
    }


def _link_redundancy_cell(
    g: float, seed: int, *, base: PaperScenario, alive_fraction: float
) -> Mapping[str, float]:
    return _run_with_scenario(replace(base, g=float(g)), seed, alive_fraction)


def _fanout_constant_cell(
    c: float, seed: int, *, base: PaperScenario, alive_fraction: float
) -> Mapping[str, float]:
    return _run_with_scenario(replace(base, c=float(c)), seed, alive_fraction)


def sweep_link_redundancy(
    *,
    g_values: Sequence[float] = (1, 2, 5, 10, 20),
    scenario: PaperScenario | None = None,
    alive_fraction: float = 0.7,
    runs: int = 5,
    master_seed: int = 0,
    executor: ExecutorSpec = None,
    progress: ProgressFn | None = None,
) -> Table:
    """Reliability/messages as the number of inter-group links ``g`` grows.

    Each extra self-elected link multiplies the chance an event survives
    the hop (pit = 1-(1-p_succ)^{g·a·π}) at the price of ``g·a`` more
    inter-group messages per level.
    """
    base = scenario or PaperScenario()
    sweep = run_sweep(
        functools.partial(
            _link_redundancy_cell, base=base, alive_fraction=alive_fraction
        ),
        list(g_values),
        runs=runs,
        master_seed=master_seed,
        label="ablation-g",
        executor=executor,
        progress=progress,
    )
    table = Table(
        f"Ablation — link redundancy g (alive={alive_fraction})",
        ["g", "recv_root", "recv_bottom", "inter_msgs", "analytic_root"],
        precision=3,
    )
    for index, g in enumerate(sweep.points):
        analytic = damulticast_reliability(
            list(reversed(base.sizes)),
            c=base.c,
            g=float(g),
            a=base.a,
            z=base.z,
            p_succ=base.p_succ * alive_fraction,
        )
        table.add_row(
            g,
            sweep.means["received_root"][index],
            sweep.means["received_bottom"][index],
            sweep.means["inter_messages"][index],
            analytic,
        )
    return table


def sweep_fanout_constant(
    *,
    c_values: Sequence[float] = (0, 1, 2, 3, 5, 8),
    scenario: PaperScenario | None = None,
    alive_fraction: float = 1.0,
    runs: int = 5,
    master_seed: int = 0,
    executor: ExecutorSpec = None,
    progress: ProgressFn | None = None,
) -> Table:
    """Reliability/messages as the gossip fan-out constant ``c`` grows.

    The intra-group term: reliability ``e^{-e^{-c}}`` versus message cost
    ``S·(log S + c)`` — §VI-D's "we can tune c_Ti to choose between the
    reliability of the dissemination ... and the message complexity".
    """
    base = scenario or PaperScenario()
    sweep = run_sweep(
        functools.partial(
            _fanout_constant_cell, base=base, alive_fraction=alive_fraction
        ),
        list(c_values),
        runs=runs,
        master_seed=master_seed,
        label="ablation-c",
        executor=executor,
        progress=progress,
    )
    table = Table(
        f"Ablation — gossip constant c (alive={alive_fraction})",
        ["c", "recv_bottom", "event_msgs", "analytic_one_group"],
        precision=3,
    )
    for index, c in enumerate(sweep.points):
        table.add_row(
            c,
            sweep.means["received_bottom"][index],
            sweep.means["event_messages"][index],
            atomic_gossip_reliability(float(c)),
        )
    return table
