"""Standardized per-PR bench record: raw pytest-benchmark JSON → BENCH_PR<k>.json.

CI runs the smoke benches with ``--benchmark-json=benchmarks/out/bench_raw.json``
and then converts that dump into a small, stable, diff-friendly record::

    benchmarks/out/BENCH_PR<k>.json

where ``<k>`` comes from ``REPRO_PR_NUMBER`` (CI sets it to the pull-request
number, falling back to the workflow run number) or ``"local"``. One such
file per PR, uploaded with the bench-tables artifact, is the bench
trajectory: events/sec for the throughput benches, publishes/sec and
deliveries/sec for the live-runtime benches, build seconds for the
membership bench, sweep wall-clock for the parallel-sweep bench.

Schema (``repro-bench-v1``)::

    {
      "schema": "repro-bench-v1",
      "pr": "<k>",
      "python": "3.12.1",
      "commit": "<sha or null>",
      "benches": [
        {
          "name": "test_engine_event_throughput",
          "group": null,
          "mean_s": 0.0123,
          "min_s": 0.0119,
          "rounds": 5,
          "ops_per_sec": 81.3,
          "events_per_sec": 813000.0,   # when extra_info reports "events";
                                        # likewise "publishes_per_sec" and
                                        # "deliveries_per_sec" — one rate
                                        # per counted unit, never mixed
          "extra_info": {"events": 10000}
        },
        ...
      ]
    }

Usage: ``python benchmarks/make_bench_report.py RAW.json [OUT_DIR]``.
Exits non-zero when the raw dump contains no benchmarks, so CI never
uploads an empty trajectory record by mistake.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

#: ``extra_info`` counts (per benchmark round) reported as ``<unit>_per_sec``:
#: engine events, live publishes and per-destination deliveries are
#: different units and each keeps its own key.
RATE_UNITS = ("events", "publishes", "deliveries")


def build_report(raw: dict, pr: str) -> dict:
    """The standardized record for one raw pytest-benchmark dump."""
    benches = []
    for bench in raw.get("benchmarks", []):
        stats = bench.get("stats", {})
        mean = stats.get("mean")
        extra_info = bench.get("extra_info", {}) or {}
        entry = {
            "name": bench.get("name"),
            "group": bench.get("group"),
            "mean_s": mean,
            "min_s": stats.get("min"),
            "rounds": stats.get("rounds"),
            "ops_per_sec": (1.0 / mean) if mean else None,
            "extra_info": extra_info,
        }
        for unit in RATE_UNITS:
            count = extra_info.get(unit)
            if isinstance(count, (int, float)) and mean:
                entry[f"{unit}_per_sec"] = count / mean
        bytes_per_process = extra_info.get("bytes_per_process")
        if isinstance(bytes_per_process, (int, float)):
            entry["bytes_per_process"] = bytes_per_process
        benches.append(entry)
    return {
        "schema": "repro-bench-v1",
        "pr": pr,
        "python": raw.get("machine_info", {}).get("python_version"),
        "commit": (raw.get("commit_info") or {}).get("id"),
        "benches": benches,
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print(
            "usage: make_bench_report.py RAW_BENCHMARK_JSON [OUT_DIR]",
            file=sys.stderr,
        )
        return 2
    raw_path = pathlib.Path(argv[0])
    out_dir = pathlib.Path(argv[1]) if len(argv) == 2 else raw_path.parent
    pr = (
        os.environ.get("REPRO_PR_NUMBER")
        or os.environ.get("GITHUB_RUN_NUMBER")
        or "local"
    )
    raw = json.loads(raw_path.read_text())
    report = build_report(raw, pr)
    if not report["benches"]:
        print(f"no benchmarks found in {raw_path}", file=sys.stderr)
        return 1
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"BENCH_PR{pr}.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path} ({len(report['benches'])} benches)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
