"""Scaling experiments: the asymptotic claims of §VI, measured.

Two sweeps back the §VI-E.1 statements:

* :func:`sweep_group_size` grows the publication group ``S_Tt`` and
  measures total event messages per publication. The §VI-B bound says the
  total is dominated by ``S·(log S + c)``, so the *normalized* column
  ``messages / (S·(log S + c))`` must stay ≈ constant (≤ 1, approaching
  the coverage fraction).
* :func:`sweep_depth` grows the chain depth ``t`` at fixed per-level size
  and measures total messages, which §VI-B bounds by
  ``t·S_max·log(S_max)·(1+c+z)`` — i.e. *linear* in ``t``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from typing import Mapping, Sequence

from repro.experiments.executor import ExecutorSpec
from repro.experiments.runner import ProgressFn, run_sweep
from repro.metrics.report import Table
from repro.workloads.scenarios import PaperScenario, inter_group_messages


def _messages_for_scenario(
    scenario: PaperScenario, seed: int
) -> Mapping[str, float]:
    built = scenario.build(seed=seed, alive_fraction=1.0)
    metrics = built.execute()
    bottom = built.compiled.ordered_topics[-1]
    return {
        "event_messages": metrics["event_messages"],
        "bottom_messages": float(
            built.system.stats.events_sent_in_group(bottom)
        ),
        "inter_messages": float(sum(inter_group_messages(built).values())),
    }


def _group_size_cell(
    s: float, seed: int, *, base: PaperScenario, upper_sizes: tuple[int, ...]
) -> Mapping[str, float]:
    scenario = replace(base, sizes=(*upper_sizes, int(s)))
    return _messages_for_scenario(scenario, seed)


def sweep_group_size(
    *,
    s_values: Sequence[int] = (50, 100, 200, 400, 800),
    upper_sizes: Sequence[int] = (5, 20),
    runs: int = 3,
    master_seed: int = 0,
    c: float = 5.0,
    log_base: float = 10.0,
    executor: ExecutorSpec = None,
    progress: ProgressFn | None = None,
) -> Table:
    """Messages per publication vs the bottom group size ``S``.

    ``upper_sizes`` fixes the root-side groups so only the publication
    group scales — isolating the ``S_Tmax`` term.
    """
    base = PaperScenario(
        sizes=(*upper_sizes, s_values[0]),
        c=c,
        fanout_log_base=log_base,
        p_succ=1.0,
    )
    sweep = run_sweep(
        functools.partial(
            _group_size_cell, base=base, upper_sizes=tuple(upper_sizes)
        ),
        [float(s) for s in s_values],
        runs=runs, master_seed=master_seed, label="scale-S",
        executor=executor, progress=progress,
    )
    table = Table(
        "Scaling — event messages vs bottom group size S "
        f"(c={c}, log base {log_base:g})",
        ["S", "event_messages", "bottom_messages", "S_logS_c", "normalized"],
        precision=3,
    )
    for index, s in enumerate(sweep.points):
        dominant = s * (math.log(s, log_base) + c)
        total = sweep.means["event_messages"][index]
        bottom = sweep.means["bottom_messages"][index]
        # Normalize the publication group's own cost by its S(log S + c)
        # law — this isolates the dominant term from the (fixed) upper
        # groups' contribution.
        table.add_row(int(s), total, bottom, dominant, bottom / dominant)
    return table


def _depth_cell(
    t: float, seed: int, *, level_size: int, c: float, log_base: float
) -> Mapping[str, float]:
    scenario = PaperScenario(
        sizes=tuple([level_size] * (int(t) + 1)),
        c=c,
        fanout_log_base=log_base,
        p_succ=1.0,
    )
    return _messages_for_scenario(scenario, seed)


def sweep_depth(
    *,
    t_values: Sequence[int] = (1, 2, 3, 4, 5),
    level_size: int = 100,
    runs: int = 3,
    master_seed: int = 0,
    c: float = 5.0,
    log_base: float = 10.0,
    executor: ExecutorSpec = None,
    progress: ProgressFn | None = None,
) -> Table:
    """Messages per publication vs chain depth ``t`` at fixed level size."""
    sweep = run_sweep(
        functools.partial(
            _depth_cell, level_size=level_size, c=c, log_base=log_base
        ),
        [float(t) for t in t_values],
        runs=runs, master_seed=master_seed, label="scale-t",
        executor=executor, progress=progress,
    )
    table = Table(
        "Scaling — total event messages vs hierarchy depth t "
        f"(S={level_size} per level)",
        ["t", "levels", "event_messages", "per_level", "inter_messages"],
        precision=3,
    )
    for index, t in enumerate(sweep.points):
        levels = int(t) + 1
        measured = sweep.means["event_messages"][index]
        table.add_row(
            int(t),
            levels,
            measured,
            measured / levels,
            sweep.means["inter_messages"][index],
        )
    return table
