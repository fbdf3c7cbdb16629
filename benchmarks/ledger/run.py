#!/usr/bin/env python3
"""The performance ledger: one command, every metric by name.

One run of one workload (what ``BENCHMARK.json``'s command invokes)::

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric with its unit, the sample count and the ``sim_digest``,
and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

Without ``--workload`` it runs every workload, each in a fresh
interpreter, and writes a ledger file ``compare.py`` reads::

    python3 benchmarks/ledger/run.py --runs 10 --sets 2 --traced --out FILE

How a run is measured is described in ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import pathlib
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
if (SRC / "repro").is_dir():
    sys.path.insert(0, str(SRC))

import ledger_trace  # noqa: E402
from ledger_trace import LAYERS, Tracer, scale_factor, spin  # noqa: E402

#: Chunks whose simulated statistics make up ``sim_digest`` and the exact
#: per-operation counts: the warm-up and the first two timed chunks, which
#: every run reaches whatever the machine's speed.
DIGEST_CHUNKS = 3
#: Fresh interpreters that repeat the set-up; with the measuring process's
#: own set-up that is six samples behind ``setup_s``.
SETUP_REPEATS = 5

_UNIT_COSTS = (
    ("sim.us_per_event", "sim", "sim.events"),
    ("net.us_per_tx", "net", "net.transmissions"),
    ("core.us_per_delivery", "core", "core.deliveries"),
    ("membership.us_per_row", "membership", "membership.rows"),
    ("metrics.us_per_record", "metrics", "metrics.records"),
)
_EXACT_COUNTS = (
    "sim.events", "net.transmissions", "net.dropped", "net.fault_loss",
    "net.fault_duplicate", "net.fault_delay_spike", "core.deliveries",
    "core.event_messages", "membership.rows", "metrics.records",
    "experiments.cells_executed", "experiments.cache_hits",
    "service.queue_executed",
)
_GAUGES = (
    "membership.bytes_per_process", "membership.entries_per_process",
    "experiments.artifact_bytes", "service.scheduler_lag_max_ms",
)


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def timed_setup(workload) -> tuple[float, float]:
    """Run ``workload.setup()``; returns (reference seconds, factor)."""
    before = spin()
    start = time.perf_counter()
    with workload.tracer.span("setup"):
        workload.setup()
    raw = time.perf_counter() - start
    factor = scale_factor(before, spin())
    return raw * factor, factor


def setup_in_fresh_interpreters(name: str, seed: int, smoke: bool) -> list[float]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--setup-only",
    ] + (["--smoke"] if smoke else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Measured:
    """The chunks of one run, with the factor that scales each to
    reference seconds and whether it ran under the profiler."""

    def __init__(self):
        self.chunks: dict[int, object] = {}
        self.factors: dict[int, float] = {}
        self.profiled: set[int] = set()
        self.spins: list[float] = []

    def timed(self, profiled: bool) -> list[int]:
        return [
            index for index in sorted(self.chunks)
            if index >= 1 and (index in self.profiled) == profiled
        ]

    def scaled_seconds(self, indices) -> float:
        return sum(self.chunks[i].seconds * self.factors[i] for i in indices)

    def op_samples(self, indices) -> list[float]:
        return [
            seconds * self.factors[i]
            for i in indices
            for seconds in self.chunks[i].op_seconds
        ]

    def total(self, key: str, indices) -> float:
        return sum(self.chunks[i].counts.get(key, 0) for i in indices)

    def ops(self, indices) -> int:
        return sum(self.chunks[i].ops for i in indices)


def measure(workload, seconds: float, profiler) -> Measured:
    """Warm up, then run chunks back to back until ``seconds`` are used.

    With a profiler the first half of the window runs plain and the second
    half under it. At least two plain timed chunks and, when profiling,
    one profiled chunk always run, so the digest chunks exist however
    short the window.
    """
    measured = Measured()
    measured.spins.append(spin())

    def run_chunk(index: int, profiled: bool = False) -> None:
        if profiled:
            profiler.enable()
        try:
            chunk = workload.chunk(index) if index >= 0 else workload.sample_chunk()
        finally:
            if profiled:
                profiler.disable()
        if chunk is None:
            return
        measured.spins.append(spin())
        measured.chunks[index] = chunk
        measured.factors[index] = scale_factor(*measured.spins[-2:])
        if profiled:
            measured.profiled.add(index)

    run_chunk(0)
    plain_seconds = seconds / 2 if profiler is not None else seconds
    index = 1
    start = time.perf_counter()
    while index < DIGEST_CHUNKS or time.perf_counter() - start < plain_seconds:
        run_chunk(index)
        index += 1
    if profiler is not None:
        first = index
        while index == first or time.perf_counter() - start < seconds:
            run_chunk(index, profiled=True)
            index += 1
        run_chunk(-1)
    return measured


def end_to_end(measured: Measured, setups: list[float]) -> dict[str, float]:
    """Medians throughout: of single-operation times, and of each timed
    chunk's own rate (its count over its reference seconds)."""
    timed = measured.timed(profiled=False)

    def rate(count) -> float:
        return statistics.median(
            count(measured.chunks[i]) / (measured.chunks[i].seconds * measured.factors[i])
            for i in timed
        )

    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(measured.op_samples(timed)) * 1e3,
        "ops_per_s": rate(lambda chunk: chunk.ops),
        "deliveries_per_s": rate(lambda chunk: chunk.deliveries),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, measured: Measured, profiler, setup_factor) -> dict[str, float]:
    tracer = workload.tracer
    plain = measured.timed(profiled=False)
    traced = measured.timed(profiled=True)
    out: dict[str, float] = {}

    # exact counts per operation, over the digest chunks and the sample
    digest = [i for i in range(DIGEST_CHUNKS) if i in measured.chunks]
    digest_ops = measured.ops(digest)
    per_op = {key: measured.total(key, digest) / digest_ops for key in _EXACT_COUNTS}
    sample = measured.chunks.get(-1)
    if sample is not None:
        for key, count in sample.counts.items():
            if key in per_op and not per_op[key]:
                per_op[key] = count / sample.ops
    out.update(per_op)
    messages = per_op["core.event_messages"]
    out["core.useful_ratio"] = per_op["core.deliveries"] / messages if messages else 0.0
    gauges = workload.gauges()
    for key in _GAUGES:
        out[key] = gauges.get(key, 0.0)

    # the profile, by layer, per operation
    stats = pstats.Stats(profiler).stats
    traced_ops = measured.ops(traced)
    traced_factor = statistics.fmean(measured.factors[i] for i in traced)
    layers = ledger_trace.attribute_profile(stats, str(HERE))
    tracer.layer_seconds = layers
    profiled_total = sum(layers.values())
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers[layer] * traced_factor / traced_ops
        out[f"{layer}.share"] = layers[layer] / profiled_total if profiled_total else 0.0
    for name, function in (("net.multicast_calls", "multicast"), ("net.send_calls", "send")):
        calls = ledger_trace.call_count(stats, "/repro/net/network.py", function)
        out[name] = calls / traced_ops
    for name, layer, key in _UNIT_COSTS:
        out[name] = out[f"{layer}.self_s"] / per_op[key] * 1e6 if per_op[key] else 0.0
    out["trace.overhead_ratio"] = statistics.median(
        measured.op_samples(traced)
    ) / statistics.median(measured.op_samples(plain))

    # driver-side phase times from the spans of the plain chunks, or of
    # the sample chunk where the workload has one with such spans
    def phase(*names: str, per_span: bool = False) -> float:
        by_op = tracer.by_op(*names)

        def scaled(op, ops: int) -> float:
            seconds, spans = by_op[op]
            return seconds * measured.factors[op] / (spans if per_span else ops)

        if -1 in by_op:
            return scaled(-1, sample.ops)
        values = [scaled(i, measured.chunks[i].ops) for i in plain if i in by_op]
        return statistics.median(values) if values else 0.0

    def setup_phase(*names: str) -> float:
        return tracer.by_op(*names).get(None, (0.0, 0))[0] * setup_factor

    out["workloads.compile_s"] = phase("compile")
    out["workloads.build_s"] = phase("build")
    out["workloads.execute_s"] = phase("run")
    out["workloads.metrics_s"] = phase("collect_metrics")
    out["core.flood_s"] = phase("publish", "run")
    out["experiments.cached_rerun_ms"] = phase("cache_rerun", per_span=True) * 1e3
    out["membership.finalize_s"] = setup_phase("finalize_membership")
    built = setup_phase("build", "finalize_membership")
    rows = gauges.get("membership.build_rows", 0)
    out["membership.build_processes_per_s"] = rows / built if rows and built else 0.0
    samples = measured.op_samples(plain)
    out["service.publish_p99_ms"] = (
        percentile(samples, 0.99) * 1e3 if workload.op == "publish" else 0.0
    )
    out["service.sync_pump_publishes_per_s"] = 0.0
    if sample is not None and sample.rate_name:
        out[sample.rate_name] = sample.ops / (sample.seconds * measured.factors[-1])
    seconds = measured.scaled_seconds(plain)
    out["sim.sim_seconds_per_s"] = measured.total("sim.seconds", plain) / seconds
    out["harness.op_p90_ms"] = percentile(samples, 0.9) * 1e3
    raw = [s for i in plain for s in measured.chunks[i].op_seconds]
    out["harness.raw_op_p50_ms"] = statistics.median(raw) * 1e3
    out["harness.reference_spin_ms"] = statistics.median(measured.spins) * 1e3
    return out


def run_once(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
             setup_repeats: bool = True) -> dict:
    """Set up, measure and check one workload; returns the run's record."""
    from ledger_workloads import WORKLOADS

    contract = load_contract()
    tracer = Tracer(name, enabled=trace)
    workload = WORKLOADS[name](seed, tracer, smoke)
    setups = (
        setup_in_fresh_interpreters(name, seed, smoke) if setup_repeats else []
    )
    profiler = cProfile.Profile() if trace else None
    own_setup, setup_factor = timed_setup(workload)
    setups.append(own_setup)
    try:
        measured = measure(workload, seconds, profiler)
        problems = workload.finish()
        values = end_to_end(measured, setups)
        if trace:
            values.update(per_layer(workload, measured, profiler, setup_factor))
    finally:
        workload.close()

    chunks = [measured.chunks[i] for i in sorted(measured.chunks) if i >= 0]
    attempted = sum(chunk.ops for chunk in chunks)
    failed = sum(chunk.failed for chunk in chunks)
    fragments = workload.fragments[:DIGEST_CHUNKS]
    wanted = contract["per_layer" if trace else "end_to_end"]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "op": workload.op,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
        "samples": len(measured.op_samples(measured.timed(profiled=False))),
        "setup_samples": len(setups),
        "sim_digest": hashlib.sha256("\n".join(fragments).encode()).hexdigest(),
        "digest_chunks": len(fragments),
        "problems": problems,
    }
    if trace:
        record["other_share"] = values["other.share"]
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{name}.json").write_text(
            json.dumps({
                "workload": name, "seed": seed, "spans": tracer.spans,
                "profiled_self_seconds_by_layer": tracer.layer_seconds,
            })
        )
    return record


def print_record(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  window {record['seconds']} s")
    for name, metric in record["metrics"].items():
        print(f"  {name:38s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  timing samples n={record['samples']}, set-up samples "
          f"n={record['setup_samples']}; times are reference seconds (README.md)")
    print(f"  operations ({record['op']}): attempted {record['attempted']}, "
          f"failed {record['failed']}")
    print(f"  sim_digest {record['sim_digest']} over {record['digest_chunks']} chunks")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if record.get("other_share", 0.0) >= 0.15:
        print(f"  WARNING: other.share {record['other_share']:.3f} >= 0.15")


# ----------------------------------------------------------------------
# Every workload, each in a fresh interpreter
# ----------------------------------------------------------------------
def run_all(args) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    seconds = args.seconds or contract["run_seconds"]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    scratch = out_dir / f"run-{os.getpid()}.json"
    passes = [(s, args.seed + r, 0) for s in range(args.sets) for r in range(args.runs)]
    if args.traced:
        passes.append((0, args.seed, 1))
    runs = []
    for set_index, seed, trace in passes:
        for name in names:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--out", str(scratch),
            ]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                return done.returncode
            record = json.loads(scratch.read_text())
            record["set"] = set_index
            runs.append(record)
            print_record(record)
    scratch.unlink(missing_ok=True)
    ledger = {"meta": machine_meta(), "runs": runs}
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


def machine_meta() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "reference_spin_s": ledger_trace.REFERENCE_SPIN_S,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: add one traced pass")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: seeds per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", help="write the run record / ledger here")
    parser.add_argument("--smoke", action="store_true",
                        help="1/50 sizes, no fresh-interpreter set-ups")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        sys.stderr.write(f"no program to measure: {SRC / 'repro'} is missing\n")
        return 2
    if args.workload is None:
        return run_all(args)

    from ledger_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    if args.setup_only:
        workload = WORKLOADS[args.workload](args.seed, Tracer(args.workload, False), args.smoke)
        try:
            print(json.dumps({"setup_s": timed_setup(workload)[0]}))
        finally:
            workload.close()
        return 0
    seconds = args.seconds or load_contract()["run_seconds"]
    record = run_once(
        args.workload, args.seed, seconds, bool(args.trace), args.smoke,
        setup_repeats=not args.smoke,
    )
    print_record(record)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(record) + "\n")
    print(json.dumps({
        key: record[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
