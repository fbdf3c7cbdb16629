"""The ledger's own tests: comparator verdicts, profile attribution, the
``BENCHMARK.json`` contract, and a smoke run of every workload.

No timing assertions — only that the machinery computes what it says.
"""

import json
import re

import pytest

import compare
import ledger_trace
import run

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


@pytest.mark.parametrize(
    "b, better, expected",
    [
        ([v * 1.02 for v in STEADY], "lower", "within"),
        ([v * 1.20 for v in STEADY], "lower", "worse"),
        ([v * 0.80 for v in STEADY], "lower", "better"),
        ([v * 0.80 for v in STEADY], "higher", "worse"),
        ([v * 1.20 for v in STEADY], "higher", "better"),
    ],
)
def test_verdict_on_steady_runs(b, better, expected):
    assert compare.verdict(STEADY, b, better, 0.10) == expected


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [80.0, 120.0, 100.0, 70.0, 130.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.10) == "unresolved"
    # ... unless every run of B beats every run of A
    assert compare.verdict(noisy, [v * 0.4 for v in noisy], "lower", 0.10) == "better"


def _run(workload, seed, value, failed=0, digest="d"):
    metrics = {
        m["name"]: {"value": value, "unit": m["unit"]} for m in CONTRACT["end_to_end"]
    }
    return {
        "workload": workload, "seed": seed, "trace": 0, "attempted": 10,
        "failed": failed, "metrics": metrics, "sim_digest": digest,
        "digest_chunks": 3,
    }


def test_compare_flags_failed_share_and_digest_change():
    workload = CONTRACT["workloads"][0]["name"]
    a = [_run(workload, seed, 100.0 + seed) for seed in range(4)]
    rows, failures = compare.compare(a, a, CONTRACT)
    assert len(rows) == len(CONTRACT["end_to_end"]) and not failures
    assert {row[-1] for row in rows} == {"within"}

    more_failed = [_run(workload, seed, 100.0 + seed, failed=1) for seed in range(4)]
    _, failures = compare.compare(a, more_failed, CONTRACT)
    assert any("failed share" in failure for failure in failures)

    changed = [_run(workload, seed, 100.0 + seed, digest="e") for seed in range(4)]
    _, failures = compare.compare(a, changed, CONTRACT)
    assert any("sim_digest" in failure for failure in failures)
    _, failures = compare.compare(a, changed, CONTRACT, allow_digest_change=True)
    assert not failures


# ----------------------------------------------------------------------
# profile attribution
# ----------------------------------------------------------------------
def test_attribution_charges_stdlib_frames_to_their_callers():
    multicast = ("/x/src/repro/net/network.py", 10, "multicast")
    handle = ("/x/src/repro/core/columnar.py", 20, "handle_batch")
    check = ("/x/src/repro/validation.py", 5, "check_finite")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    shuffle = ("/usr/lib/python3.11/random.py", 300, "shuffle")
    randbelow = ("/usr/lib/python3.11/random.py", 200, "_randbelow")
    orphan = ("~", 0, "<built-in method builtins.len>")
    driver = (str(run.HERE / "run.py"), 1, "measure")
    loop = ("/usr/lib/python3.11/asyncio/base_events.py", 1, "_run_once")
    stats = {
        # (cc, nc, tottime, cumtime, {caller: (nc, cc, tottime, cumtime)})
        driver: (1, 1, 0.5, 20.0, {}),
        multicast: (1, 1, 4.0, 9.0, {driver: (1, 1, 4.0, 9.0)}),
        handle: (1, 1, 2.0, 5.0, {multicast: (1, 1, 2.0, 5.0)}),
        check: (1, 1, 1.0, 1.0, {handle: (1, 1, 1.0, 1.0)}),
        # a builtin called from two layers: split by the recorded self time
        heappush: (4, 4, 2.0, 2.0, {multicast: (3, 3, 1.5, 1.5), handle: (1, 1, 0.5, 0.5)}),
        # stdlib calling stdlib: resolved through shuffle up to core
        shuffle: (1, 1, 1.0, 3.0, {handle: (1, 1, 1.0, 3.0)}),
        randbelow: (9, 9, 2.0, 2.0, {shuffle: (9, 9, 2.0, 2.0)}),
        orphan: (1, 1, 0.25, 0.25, {}),
        loop: (1, 1, 0.75, 0.75, {driver: (1, 1, 0.75, 0.75)}),
    }
    layers = ledger_trace.attribute_profile(stats, str(run.HERE))
    assert layers["net"] == pytest.approx(4.0 + 1.5)
    assert layers["core"] == pytest.approx(2.0 + 0.5 + 1.0 + 2.0)
    assert layers["harness"] == pytest.approx(1.0)
    assert layers["asyncio"] == pytest.approx(0.75)
    assert layers["other"] == pytest.approx(0.5 + 0.25)
    assert sum(layers.values()) == pytest.approx(sum(e[2] for e in stats.values()))
    assert ledger_trace.call_count(stats, "/repro/net/network.py", "multicast") == 1


def test_attribution_skips_recursive_edges():
    spec_with = ("/x/src/repro/workloads/spec.py", 1, "spec_with")
    deepcopy = ("/usr/lib/python3.11/copy.py", 128, "deepcopy")
    copy_dict = ("/usr/lib/python3.11/copy.py", 227, "_deepcopy_dict")
    stats = {
        spec_with: (1, 1, 0.0, 3.0, {}),
        deepcopy: (9, 1, 1.0, 3.0, {spec_with: (1, 1, 0.2, 3.0), copy_dict: (8, 0, 0.8, 0.0)}),
        copy_dict: (4, 1, 2.0, 2.5, {deepcopy: (4, 1, 2.0, 2.5)}),
    }
    layers = ledger_trace.attribute_profile(stats)
    assert layers["workloads"] == pytest.approx(3.0)
    assert layers["other"] == pytest.approx(0.0)


# ----------------------------------------------------------------------
# the contract and a smoke run of everything it names
# ----------------------------------------------------------------------
def test_benchmark_json_is_inside_the_contract_limits():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * (CONTRACT["run_seconds"] + 8) <= 3420


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(workload, trace):
    record = run.run_once(
        workload, seed=3, seconds=0.05, trace=trace, smoke=True, setup_repeats=False
    )
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in wanted]
    assert all(
        isinstance(m["value"], (int, float)) and m["value"] == m["value"]
        for m in record["metrics"].values()
    )
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert len(record["sim_digest"]) == 64
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())
