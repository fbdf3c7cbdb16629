"""The paper's sweeps as the eight rows of :data:`SWEEPS`, over one cell.

``fig8``–``fig11`` (§VII) sweep the fraction of alive processes: events sent
inside and between groups, and the fraction of each group that receives the
event under stillborn and dynamic failures. ``ablation-g``/``-c`` sweep the
knobs §VII and §VI-D name as the reliability/message trade-off, next to their
closed forms. ``scale-S``/``-t`` grow the publication group and the chain
depth: §VI-B's ``S·(log S + c)`` per group, linear in ``t``. A row's name is
its seed label: run ``j`` at value ``v`` is seeded ``derive_seed(master_seed,
f"{name}/{v}/{j}")``, so ``1`` and ``1.0`` are different seeds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.analysis.reliability import (
    atomic_gossip_reliability,
    damulticast_reliability,
)
from repro.experiments.executor import ExecutorSpec
from repro.experiments.runner import ProgressFn, run_sweep
from repro.metrics.report import Table
from repro.validation import check_finite_grid
from repro.workloads.scenarios import PaperScenario
from repro.workloads.spec import compile_spec_cached


class Point(NamedTuple):
    """What a computed column reads: one grid value and its means."""

    value: Any
    scenario: PaperScenario
    alive: float
    means: Mapping[str, float]


@dataclass(frozen=True)
class Sweep:
    """One row of :data:`SWEEPS`; by default five runs of the §VII scenario."""

    title: str  # formatted with the run's ``scenario`` and ``alive``
    axis: str  # the header of the grid-value column
    values: tuple
    #: ``point(scenario, alive, value)`` -> the spec a grid value builds; a
    #: module-level function or a partial of one, so workers unpickle it
    point: Callable[[PaperScenario, float, Any], dict]
    #: ``(header, source)``: a metric key the cell reports, printed as its
    #: mean (a ``{L}`` key is one column per level, deepest first), or a
    #: function of the :class:`Point`
    columns: tuple[tuple[str, Any], ...]
    runs: int = 5
    scenario: PaperScenario = PaperScenario()
    alive: float = 1.0
    integral: bool = False  # int values, seeded as floats, printed as ints


def _alive_point(scenario, alive, value, failure_mode="stillborn"):
    return scenario.spec(alive_fraction=value, failure_mode=failure_mode)


def _knob_point(scenario, alive, value, knob):
    return replace(scenario, **{knob: float(value)}).spec(alive_fraction=alive)


def _bottom_point(scenario, alive, value):
    sizes = (*scenario.sizes[:-1], int(value))
    return replace(scenario, sizes=sizes).spec(alive_fraction=alive)


def _depth_point(scenario, alive, value):
    # every level the size of the scenario's first group
    sizes = (scenario.sizes[0],) * (int(value) + 1)
    return replace(scenario, sizes=sizes).spec(alive_fraction=alive)


def _s_log_s(p: Point) -> float:
    return p.value * (math.log(p.value, p.scenario.fanout_log_base) + p.scenario.c)


_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
_RECEIVED = (("recv_T{L}", "received_T{L}"),)
_LOSSLESS = PaperScenario(p_succ=1.0)  # the scaling sweeps show structure only

SWEEPS: Mapping[str, Sweep] = {
    "fig8": Sweep(
        "Fig. 8 — events sent within each group", "alive_fraction", _GRID,
        _alive_point, (("msgs_T{L}", "intra_T{L}"),),
    ),
    "fig9": Sweep(
        "Fig. 9 — events sent between groups", "alive_fraction", _GRID,
        _alive_point, (("T{L}->T{U}", "inter_T{L}_T{U}"),),
    ),
    "fig10": Sweep(
        "Fig. 10 — reliability (stillborn processes)", "alive_fraction", _GRID,
        _alive_point, _RECEIVED,
    ),
    "fig11": Sweep(
        "Fig. 11 — reliability (dynamically failed processes)", "alive_fraction",
        _GRID, functools.partial(_alive_point, failure_mode="dynamic"), _RECEIVED,
    ),
    # an extra self-elected link raises the chance an event survives a hop
    # (pit = 1-(1-p_succ)^{g·a·π}) for g·a more messages per level
    "ablation-g": Sweep(
        "Ablation — link redundancy g (alive={alive})", "g", (1, 2, 5, 10, 20),
        functools.partial(_knob_point, knob="g"),
        (
            ("recv_root", "received_root"),
            ("recv_bottom", "received_bottom"),
            ("inter_msgs", "inter_messages"),
            ("analytic_root", lambda p: damulticast_reliability(
                list(reversed(p.scenario.sizes)), c=p.scenario.c,
                g=float(p.value), a=p.scenario.a, z=p.scenario.z,
                p_succ=p.scenario.p_succ * p.alive,
            )),
        ),
        alive=0.7,
    ),
    # intra-group reliability e^{-e^{-c}} against cost S·(log S + c)
    "ablation-c": Sweep(
        "Ablation — gossip constant c (alive={alive})", "c", (0, 1, 2, 3, 5, 8),
        functools.partial(_knob_point, knob="c"),
        (
            ("recv_bottom", "received_bottom"),
            ("event_msgs", "event_messages"),
            ("analytic_one_group", lambda p: atomic_gossip_reliability(float(p.value))),
        ),
    ),
    # the bottom group's cost over its own S(log S + c) isolates the
    # dominant term from the fixed upper groups
    "scale-S": Sweep(
        "Scaling — event messages vs bottom group size S "
        "(c={scenario.c}, log base {scenario.fanout_log_base:g})",
        "S", (50, 100, 200, 400, 800), _bottom_point,
        (
            ("event_messages", "event_messages"),
            ("bottom_messages", "bottom_messages"),
            ("S_logS_c", _s_log_s),
            ("normalized", lambda p: p.means["bottom_messages"] / _s_log_s(p)),
        ),
        runs=3, scenario=replace(_LOSSLESS, sizes=(5, 20, 50)), integral=True,
    ),
    "scale-t": Sweep(
        "Scaling — total event messages vs hierarchy depth t "
        "(S={scenario.sizes[0]} per level)",
        "t", (1, 2, 3, 4, 5), _depth_point,
        (
            ("levels", lambda p: int(p.value) + 1),
            ("event_messages", "event_messages"),
            ("per_level", lambda p: p.means["event_messages"] / (int(p.value) + 1)),
            ("inter_messages", "inter_messages"),
        ),
        runs=3, scenario=replace(_LOSSLESS, sizes=(100,)), integral=True,
    ),
}


def _cell(value, seed: int, *, point, scenario, alive, keys) -> dict[str, float]:
    """One run at one grid value: the per-level series, read once, of which
    the row's ``keys`` are returned (at ``scale-t`` the depth, and so the
    per-level key set, changes from point to point)."""
    built = compile_spec_cached(point(scenario, alive, value)).build(seed)
    readings = {"event_messages": built.execute()["event_messages"]}
    system, event = built.system, built.published[0]
    stats, topics = system.stats, built.compiled.ordered_topics
    inter = [stats.events_sent_between(low, up) for low, up in zip(topics[1:], topics)]
    for level, topic in enumerate(topics):
        readings[f"intra_T{level}"] = float(stats.events_sent_in_group(topic))
        # the figures count the dead too, which keeps them under the diagonal
        readings[f"received_T{level}"] = system.delivered_fraction(event, topic, alive_only=False)
        # §VI-D's indicator; no row prints it
        readings[f"all_received_T{level}"] = float(system.all_received(event, topic))
        if level:
            readings[f"inter_T{level}_T{level - 1}"] = float(inter[level - 1])
    bottom = len(topics) - 1
    readings.update(
        received_root=readings["received_T0"],
        received_bottom=readings[f"received_T{bottom}"],
        bottom_messages=readings[f"intra_T{bottom}"],
        inter_messages=float(sum(inter)),
    )
    return {key: readings[key] for key in keys}


def _expand(columns, depth: int) -> list[tuple[str, Any]]:
    """``columns`` on a chain ``depth`` levels deep: a ``{L}`` key becomes
    one column per level, deepest first, down to the root (to level 1 when
    it names the level above, ``{U}``, too)."""
    expanded = []
    for header, source in columns:
        if not (isinstance(source, str) and "{L}" in source):
            expanded.append((header, source))
            continue
        lowest = 1 if "{U}" in source else 0
        for level in range(depth, lowest - 1, -1):
            names = {"L": level, "U": level - 1}
            expanded.append((header.format(**names), source.format(**names)))
    return expanded


def paper_table(
    name: str, *, values: Sequence[Any] | None = None, runs: int | None = None,
    alive: float | None = None, scenario: PaperScenario | None = None, master_seed: int = 0,
    executor: ExecutorSpec = None, progress: ProgressFn | None = None,
) -> Table:
    """Run the :data:`SWEEPS` row ``name`` and tabulate it; an argument
    left ``None`` is the row's. Every point compiles here first, through
    the memo, so a bad value is a :class:`~repro.errors.ConfigError`
    before any cell runs."""
    row = SWEEPS[name]
    values = list(row.values if values is None else values)
    check_finite_grid(values)
    values = [float(value) for value in values] if row.integral else values
    alive = row.alive if alive is None else alive
    scenario = row.scenario if scenario is None else scenario
    for value in values:
        compile_spec_cached(row.point(scenario, alive, value))
    columns = _expand(row.columns, scenario.depth)
    keys = [source for _, source in columns if isinstance(source, str)]
    cell = functools.partial(_cell, point=row.point, scenario=scenario, alive=alive, keys=keys)
    sweep = run_sweep(
        cell, values, runs=row.runs if runs is None else runs,
        master_seed=master_seed, label=name, executor=executor, progress=progress,
    )
    headers = [row.axis, *(header for header, _ in columns)]
    table = Table(row.title.format(scenario=scenario, alive=alive), headers, precision=3)
    for index, value in enumerate(sweep.points):
        means = {key: sweep.means[key][index] for key in keys}
        at = Point(value, scenario, alive, means)
        table.add_row(
            int(value) if row.integral else value,
            *(means[src] if isinstance(src, str) else src(at) for _, src in columns),
        )
    return table
