"""Plain-text tables and series rendering for experiment output.

The CLI prints, for every figure/table of the paper, the same
rows/series the paper reports. These helpers render them as aligned ASCII
tables (readable in CI logs) and as machine-readable dicts.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Sequence


def _format_cell(value: Any, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


@dataclass
class Table:
    """A titled table with named columns; renders to aligned ASCII."""

    title: str
    columns: Sequence[str]
    rows: list[list[Any]] = field(default_factory=list)
    precision: int = 4

    def add_row(self, *values: Any) -> None:
        """Append one row; must match the number of columns."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells but table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def render(self) -> str:
        """Aligned ASCII rendering with a title rule."""
        header = list(self.columns)
        body = [
            [_format_cell(value, self.precision) for value in row]
            for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def as_dicts(self) -> list[dict[str, Any]]:
        """Rows as column-keyed dicts (for tests and JSON export)."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def to_csv(self) -> str:
        """CSV rendering (header + rows) for external plotting tools."""
        output = io.StringIO()
        writer = csv.writer(output, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return output.getvalue()

    def to_json(self) -> str:
        """JSON rendering: ``{"title": ..., "rows": [{col: val}, ...]}``."""
        return json.dumps(
            {"title": self.title, "rows": self.as_dicts()},
            indent=2,
            default=str,
        )


#: Payload schemas written by ``repro scenario run/sweep --out`` and read
#: back by ``repro scenario render``.
SCENARIO_RUN_SCHEMA = "repro-scenario-run-v1"
SCENARIO_SWEEP_SCHEMA = "repro-scenario-sweep-v1"


def _select_metrics(
    available: Sequence[str], requested: Sequence[str] | None, what: str
) -> list[str]:
    if requested is None:
        return sorted(available)
    missing = sorted(set(requested) - set(available))
    if missing:
        from repro.errors import ConfigError

        raise ConfigError(
            f"{what}: unknown metric(s) {', '.join(map(repr, missing))}; "
            f"available: {', '.join(sorted(available))}"
        )
    return list(requested)


def table_from_scenario_payload(
    payload: Any, metrics: Sequence[str] | None = None
) -> Table:
    """A figure-style :class:`Table` from a saved scenario payload.

    Accepts the two JSON payloads the scenario CLI writes with ``--out``:

    * ``repro-scenario-run-v1`` → one row per metric (mean, std over runs);
    * ``repro-scenario-sweep-v1`` → one row per swept point, one column per
      metric mean (restrict with ``metrics``).

    The returned table renders to aligned ASCII (:meth:`Table.render`),
    CSV (:meth:`Table.to_csv`) or JSON (:meth:`Table.to_json`).
    """
    from repro.errors import ConfigError

    if not isinstance(payload, dict):
        raise ConfigError(
            f"scenario payload must be a JSON object, got {type(payload).__name__}"
        )
    schema = payload.get("schema")
    if schema == SCENARIO_RUN_SCHEMA:
        means = payload.get("means", {})
        stds = payload.get("stds", {})
        chosen = _select_metrics(list(means), metrics, "render")
        table = Table(
            f"scenario {payload.get('name', '?')} — metrics over "
            f"{payload.get('runs', '?')} run(s), master seed "
            f"{payload.get('master_seed', '?')}",
            ["metric", "mean", "std"],
        )
        for metric in chosen:
            table.add_row(metric, means[metric], stds.get(metric, 0.0))
        return table
    if schema == SCENARIO_SWEEP_SCHEMA:
        means = payload.get("means", {})
        field_name = payload.get("field", "point")
        chosen = _select_metrics(list(means), metrics, "render")
        table = Table(
            f"scenario {payload.get('name', '?')} — sweep over "
            f"{field_name} ({payload.get('runs', '?')} run(s)/point, "
            f"master seed {payload.get('master_seed', '?')})",
            [field_name, *chosen],
        )
        for index, point in enumerate(payload.get("points", [])):
            table.add_row(
                point, *(means[metric][index] for metric in chosen)
            )
        return table
    raise ConfigError(
        f"unknown scenario payload schema {schema!r}; expected "
        f"{SCENARIO_RUN_SCHEMA!r} or {SCENARIO_SWEEP_SCHEMA!r} "
        "(write one with 'repro scenario run/sweep --out')"
    )
