"""Tests for the standardized per-PR bench record (BENCH_PR<k>.json)."""

import importlib.util
import json
import pathlib
import sys

REPORT_SCRIPT = (
    pathlib.Path(__file__).parent.parent / "benchmarks" / "make_bench_report.py"
)


def _load_module():
    spec = importlib.util.spec_from_file_location(
        "make_bench_report", REPORT_SCRIPT
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RAW = {
    "machine_info": {"python_version": "3.12.0"},
    "commit_info": {"id": "abc123"},
    "benchmarks": [
        {
            "name": "test_engine_event_throughput",
            "group": None,
            "stats": {"mean": 0.01, "min": 0.009, "rounds": 5},
            "extra_info": {"events": 10000},
        },
        {
            "name": "test_membership_build",
            "group": None,
            "stats": {"mean": 2.5, "min": 2.5, "rounds": 1},
            "extra_info": {"build_seconds": {"5000": 0.15}},
        },
        {
            "name": "test_dynamic_scenario_event_throughput",
            "group": None,
            "stats": {"mean": 0.05, "min": 0.04, "rounds": 3},
            "extra_info": {
                "events": 5000,
                "scenario": "churn-recover (mode=dynamic)",
            },
        },
    ],
}


class TestBenchReport:
    def test_build_report_schema(self):
        module = _load_module()
        report = module.build_report(RAW, pr="4")
        assert report["schema"] == "repro-bench-v1"
        assert report["pr"] == "4"
        assert report["python"] == "3.12.0"
        assert report["commit"] == "abc123"
        assert len(report["benches"]) == 3

    def test_events_per_sec_derived(self):
        module = _load_module()
        benches = {
            bench["name"]: bench
            for bench in module.build_report(RAW, pr="x")["benches"]
        }
        throughput = benches["test_engine_event_throughput"]
        assert throughput["events_per_sec"] == 10000 / 0.01
        assert throughput["ops_per_sec"] == 1 / 0.01

    def test_dynamic_scenario_row_included(self):
        # The bench trajectory must cover the dynamic-protocol path: the
        # dynamic-scenario bench reports engine callbacks as `events`, so
        # its events/sec lands in BENCH_PR<k>.json like the static rows.
        module = _load_module()
        benches = {
            bench["name"]: bench
            for bench in module.build_report(RAW, pr="x")["benches"]
        }
        dynamic = benches["test_dynamic_scenario_event_throughput"]
        assert dynamic["events_per_sec"] == 5000 / 0.05
        assert dynamic["extra_info"]["scenario"].startswith("churn-recover")
        # No "events" in extra_info → no events_per_sec key.
        assert "events_per_sec" not in benches["test_membership_build"]

    def test_live_rows_keep_their_units(self):
        # A live publish is not an engine event: its rate lands under
        # publishes_per_sec / deliveries_per_sec, never events_per_sec.
        module = _load_module()
        raw = {
            "benchmarks": [
                {
                    "name": "test_live_publish_throughput",
                    "stats": {"mean": 0.1, "min": 0.1, "rounds": 2},
                    "extra_info": {"publishes": 50, "deliveries": 3000},
                }
            ]
        }
        (live,) = module.build_report(raw, pr="x")["benches"]
        assert live["publishes_per_sec"] == 50 / 0.1
        assert live["deliveries_per_sec"] == 3000 / 0.1
        assert "events_per_sec" not in live

    def test_main_writes_named_file(self, tmp_path, monkeypatch, capsys):
        module = _load_module()
        raw_path = tmp_path / "raw.json"
        raw_path.write_text(json.dumps(RAW))
        monkeypatch.setenv("REPRO_PR_NUMBER", "17")
        assert module.main([str(raw_path)]) == 0
        out_path = tmp_path / "BENCH_PR17.json"
        assert out_path.is_file()
        report = json.loads(out_path.read_text())
        assert report["pr"] == "17"
        assert report["benches"], "record must be populated"

    def test_main_rejects_empty_dump(self, tmp_path, monkeypatch, capsys):
        module = _load_module()
        raw_path = tmp_path / "raw.json"
        raw_path.write_text(json.dumps({"benchmarks": []}))
        monkeypatch.setenv("REPRO_PR_NUMBER", "17")
        assert module.main([str(raw_path)]) == 1
