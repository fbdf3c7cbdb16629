#!/usr/bin/env python3
"""Compare two ledger files written by ``run.py --out``.

    python3 benchmarks/ledger/compare.py A.json B.json

prints one row per (workload, end-to-end metric): both medians, the ratio
B/A (A is the base), the bound from ``BENCHMARK.json`` and a verdict:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than the run-to-run spread;
* ``within`` — neither;
* ``unresolved`` — the run-to-run spread of either side (distance between
  its quartiles over its median) is wider than the bound, so the bound
  cannot be checked — unless every run of B beats every run of A.

Exit status is non-zero on any ``worse``, on a larger failed share, or on
a ``sim_digest`` that changed for the same (workload, seed) unless
``--allow-digest-change`` is given. A file holding several sets of runs
(the committed baseline holds two) is split with ``--set-a``/``--set-b``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """The verdict for one metric on one workload (A is the base)."""
    sign = -1.0 if better == "lower" else 1.0
    a_good = [sign * value for value in a]
    b_good = [sign * value for value in b]
    base = abs(statistics.median(a))
    gain = (statistics.median(b_good) - statistics.median(a_good)) / base
    noise = max(spread(a), spread(b))
    if noise > bound:
        if min(b_good) > max(a_good):
            return "better"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > noise and min(len(a), len(b)) >= 2:
        return "better"
    return "within"


def untraced(ledger: dict, set_index: int | None) -> list[dict]:
    return [
        run for run in ledger["runs"]
        if not run["trace"] and (set_index is None or run.get("set", 0) == set_index)
    ]


def by_workload(runs: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(a_runs, b_runs, contract, allow_digest_change=False):
    """Rows to print and the reasons, if any, to exit non-zero."""
    rows, failures = [], []
    a_by, b_by = by_workload(a_runs), by_workload(b_runs)
    for workload in [w["name"] for w in contract["workloads"]]:
        a_side, b_side = a_by.get(workload), b_by.get(workload)
        if not a_side or not b_side:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in a_side]
            b = [run["metrics"][name]["value"] for run in b_side]
            result = verdict(a, b, metric["better"], metric["bound"])
            if result == "worse":
                failures.append(f"{workload} {name} is worse")
            rows.append((
                workload, name, metric["unit"], statistics.median(a),
                statistics.median(b), statistics.median(b) / statistics.median(a),
                metric["bound"], max(spread(a), spread(b)), result,
            ))

        if failed_share(b_side) > failed_share(a_side):
            failures.append(
                f"{workload} failed share rose from {failed_share(a_side):.4f} "
                f"to {failed_share(b_side):.4f}"
            )
        a_digests = {
            (run["seed"], run["digest_chunks"]): run["sim_digest"] for run in a_side
        }
        changed = sorted({
            run["seed"] for run in b_side
            if a_digests.get(
                (run["seed"], run["digest_chunks"]), run["sim_digest"]
            ) != run["sim_digest"]
        })
        if changed and not allow_digest_change:
            failures.append(f"{workload} sim_digest changed for seeds {changed}")
    return rows, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--set-a", type=int)
    parser.add_argument("--set-b", type=int)
    parser.add_argument("--allow-digest-change", action="store_true")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs = untraced(json.loads(pathlib.Path(args.a).read_text()), args.set_a)
    b_runs = untraced(json.loads(pathlib.Path(args.b).read_text()), args.set_b)
    rows, failures = compare(a_runs, b_runs, contract, args.allow_digest_change)
    print(f"{'workload':16s} {'metric':18s} {'unit':5s} {'A median':>12s} "
          f"{'B median':>12s} {'B/A':>7s} {'bound':>6s} {'spread':>7s}  verdict")
    for workload, name, unit, a, b, ratio, bound, noise, result in rows:
        print(f"{workload:16s} {name:18s} {unit:5s} {a:12.5g} {b:12.5g} "
              f"{ratio:7.3f} {bound:6.2f} {noise:7.3f}  {result}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
