"""Figures 8–11 (§VII): the paper's four simulation plots.

Each ``run_figureN`` sweeps the fraction of alive processes over a grid
(the figures' x-axis), runs the §VII scenario several times per point with
derived seeds, and returns a :class:`~repro.metrics.report.Table` whose
columns are the paper's plotted series:

* Fig. 8 — events sent inside each group (T2, T1, T0),
* Fig. 9 — events sent between groups (T2→T1, T1→T0),
* Fig. 10 — fraction of processes receiving the event, stillborn failures,
* Fig. 11 — the same under dynamic (weakly-consistent) failures.
"""

from __future__ import annotations

import functools
from typing import Mapping, Sequence

from repro.experiments.executor import ExecutorSpec
from repro.experiments.runner import ProgressFn, run_sweep
from repro.metrics.report import Table
from repro.workloads.scenarios import (
    PaperScenario,
    delivered_fractions,
    inter_group_messages,
)

#: The figures' x-axis: percentage of alive processes, 0 → 1.
DEFAULT_GRID: tuple[float, ...] = (
    0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)


def _run_scenario_once(
    alive_fraction: float,
    seed: int,
    *,
    scenario: PaperScenario,
    failure_mode: str,
) -> Mapping[str, float]:
    """One §VII run; returns every metric any of the figures needs."""
    built = scenario.build(
        seed=seed, alive_fraction=alive_fraction, failure_mode=failure_mode
    )
    built.execute()
    system, event = built.system, built.published[0]
    metrics: dict[str, float] = {}
    # both helpers walk the chain root-first: level 0 is T0
    for level, (topic, fraction) in enumerate(delivered_fractions(built).items()):
        metrics[f"intra_T{level}"] = float(
            system.stats.events_sent_in_group(topic)
        )
        metrics[f"received_T{level}"] = fraction
        metrics[f"all_received_T{level}"] = float(
            system.all_received(event, topic)
        )
    for level, count in enumerate(inter_group_messages(built).values(), start=1):
        metrics[f"inter_T{level}_T{level - 1}"] = float(count)
    return metrics


#: Per figure: (failure mode, table title, metric-key pattern, column
#: header pattern, lowest plotted level). Level ``L`` runs from the
#: scenario's depth down to the lowest plotted level; ``U`` is ``L - 1``.
_FIGURES: Mapping[str, tuple[str, str, str, str, int]] = {
    "fig8": (
        "stillborn", "Fig. 8 — events sent within each group",
        "intra_T{L}", "msgs_T{L}", 0,
    ),
    "fig9": (
        "stillborn", "Fig. 9 — events sent between groups",
        "inter_T{L}_T{U}", "T{L}->T{U}", 1,
    ),
    "fig10": (
        "stillborn", "Fig. 10 — reliability (stillborn processes)",
        "received_T{L}", "recv_T{L}", 0,
    ),
    "fig11": (
        "dynamic", "Fig. 11 — reliability (dynamically failed processes)",
        "received_T{L}", "recv_T{L}", 0,
    ),
}


def _run_figure(
    label: str,
    *,
    grid: Sequence[float] = DEFAULT_GRID,
    runs: int = 5,
    master_seed: int = 0,
    scenario: PaperScenario | None = None,
    executor: ExecutorSpec = None,
    progress: ProgressFn | None = None,
) -> Table:
    """One figure: sweep the alive fraction, tabulate its plotted series.

    ``label`` keys :data:`_FIGURES` and is the sweep's seed label.
    """
    failure_mode, title, metric, header, lowest = _FIGURES[label]
    scenario = scenario or PaperScenario()
    # A partial of the module-level run function (not a lambda) so the
    # sweep can be fanned out over parallel executors.
    sweep = run_sweep(
        functools.partial(
            _run_scenario_once, scenario=scenario, failure_mode=failure_mode
        ),
        grid,
        runs=runs,
        master_seed=master_seed,
        label=label,
        executor=executor,
        progress=progress,
    )
    # metric key -> column header, in display order (deepest group first)
    columns = {
        metric.format(L=level, U=level - 1): header.format(L=level, U=level - 1)
        for level in range(scenario.depth, lowest - 1, -1)
    }
    table = Table(title, ["alive_fraction", *columns.values()], precision=3)
    for index, point in enumerate(sweep.points):
        table.add_row(point, *(sweep.means[key][index] for key in columns))
    return table


#: Fig. 8: number of events sent in each group vs alive fraction.
run_figure8 = functools.partial(_run_figure, "fig8")
#: Fig. 9: number of inter-group events vs alive fraction.
run_figure9 = functools.partial(_run_figure, "fig9")
#: Fig. 10: reception fraction per group, stillborn failures.
run_figure10 = functools.partial(_run_figure, "fig10")
#: Fig. 11: reception fraction per group, dynamic failures.
run_figure11 = functools.partial(_run_figure, "fig11")
