"""The ledger's workloads: what each one runs, counts and checks.

A workload is a closed loop of *chunks* from one thread: the runner calls
``setup()`` once, then ``chunk(0)`` (the untimed warm-up), ``chunk(1)``,
``chunk(2)``, ... until its time is up, then ``finish()``. A chunk is one
operation where the operation is long (a flood, a scenario run, a
ten-cell sweep round) and a burst of them where it is short (25
publishes, 10 cached re-runs), so that the reference loop the runner
times between chunks costs a few percent of the window.

Everything the program sees is generated here from ``--seed``: chunk
``i`` runs on ``op_seed(i)``, so the same seed replays the same inputs
and the simulated statistics of chunk ``i`` never depend on how many
chunks a run had time for. All ``repro`` imports happen inside
``setup()`` — import time is part of ``setup_s``.

Every call into the program sits in a ``tracer.span(...)``; the names are
the ledger's vocabulary (``compile``, ``build``, ``finalize_membership``,
``publish``, ``run``, ``collect_metrics``, ``cache_populate``,
``cache_rerun``, ``replay_verify``).
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import pathlib
import random
import tempfile
import time
from dataclasses import dataclass, field

from ledger_trace import Tracer

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

SWEEP_FIELD = "failures.alive_fraction"
SWEEP_VALUES = [round(0.1 * i, 1) for i in range(1, 11)]


@dataclass
class Chunk:
    """What one chunk did: operations, raw seconds, exact counts."""

    ops: int
    failed: int
    seconds: float
    #: raw timing samples of single operations inside the chunk
    op_seconds: list[float]
    counts: dict[str, float] = field(default_factory=dict)
    #: set on a sample chunk whose point is a rate of its own
    rate_name: str | None = None
    #: deliveries in the results handed to the caller — those the program
    #: made, unless the results came out of a store
    deliveries: float | None = None

    def __post_init__(self):
        if self.deliveries is None:
            self.deliveries = self.counts.get("core.deliveries", 0)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=float)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """Base: seed derivation and the hooks a workload may leave empty."""

    name = ""
    #: what ``attempted``/``failed`` count
    op = "op"

    def __init__(self, seed: int, tracer: Tracer, smoke: bool = False):
        self.seed = seed
        self.tracer = tracer
        self.smoke = smoke
        #: digest material per chunk, in chunk order
        self.fragments: list[str] = []

    def op_seed(self, index: int) -> int:
        raw = hashlib.sha256(f"{self.seed}/{self.name}/{index}".encode()).digest()
        return int.from_bytes(raw[:8], "big") >> 1

    def setup(self) -> None:
        raise NotImplementedError

    def chunk(self, index: int) -> Chunk:
        raise NotImplementedError

    def sample_chunk(self) -> Chunk | None:
        """Traced runs only: one extra counted pass through surfaces the
        regular chunks do not expose."""
        return None

    def finish(self) -> list[str]:
        """Checks over the whole run; returns what failed."""
        return []

    def gauges(self) -> dict[str, float]:
        """Point-in-time per-layer readings (not summed over chunks)."""
        return {}

    def close(self) -> None:
        pass


def _system_counts(system, degradation) -> dict[str, float]:
    """Exact counts off a finished scenario's public surfaces."""
    stats = system.stats
    delivered = sum(row["delivered"] for row in degradation.values())
    published = sum(row["published"] for row in degradation.values())
    return {
        "sim.events": system.engine.processed,
        "sim.seconds": system.now,
        "net.transmissions": stats.total_sent,
        "net.dropped": stats.total_dropped,
        "net.fault_loss": stats.faults_by_reason.get("loss", 0),
        "net.fault_duplicate": stats.faults_by_reason.get("duplicate", 0),
        "net.fault_delay_spike": stats.faults_by_reason.get("delay_spike", 0),
        "core.deliveries": delivered,
        "core.event_messages": stats.event_messages_sent(),
        "membership.rows": len(system.processes),
        "metrics.records": delivered + published,
    }


# ----------------------------------------------------------------------
# Sweeps through the scenario layer: cold (every cell misses the store)
# and cached (every cell hits it)
# ----------------------------------------------------------------------
class _SweepWorkload(Workload):
    """One sweep is ``runs=1`` over the ten alive fractions: ten cells."""

    op = "cell"
    cells = len(SWEEP_VALUES)

    def setup(self) -> None:
        from repro.experiments import CachingExecutor, SerialExecutor
        from repro.experiments.artifacts import ArtifactStore
        from repro.workloads.presets import load_preset
        from repro.workloads.spec import spec_digest, spec_with

        spec = load_preset("paper-vii")
        if self.smoke:
            spec = spec_with(spec, "subscriptions.counts", [2, 4, 20])
        self.spec = spec
        OUT_DIR.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="store-")
        self.executor = CachingExecutor(
            SerialExecutor(),
            ArtifactStore(self._tmp.name),
            spec_digest({"spec": spec, "field": SWEEP_FIELD}),
        )

    def _sweep(self, master_seed: int):
        from repro.workloads.spec import sweep_scenario

        return sweep_scenario(
            self.spec,
            SWEEP_FIELD,
            SWEEP_VALUES,
            runs=1,
            master_seed=master_seed,
            executor=self.executor,
        )

    @staticmethod
    def _deliveries(result) -> int:
        """Deliveries the sweep's cells made: every process is interested
        in the bottom-topic event, so it is the delivered fraction of all."""
        means = result.means
        return sum(
            round(fraction * processes)
            for fraction, processes in zip(
                means["mean_delivery_all"], means["processes"]
            )
        )

    def gauges(self) -> dict[str, float]:
        root = pathlib.Path(self._tmp.name)
        return {
            "experiments.artifact_bytes": sum(
                path.stat().st_size for path in root.rglob("*.json")
            )
        }

    def close(self) -> None:
        self._tmp.cleanup()


class PaperSweep(_SweepWorkload):
    name = "paper_sweep"

    def setup(self) -> None:
        super().setup()
        #: per sweep point, mean_delivery_all summed over the run's sweeps
        self._curve_sums = [0.0] * self.cells
        self._sweeps = 0

    def chunk(self, index: int) -> Chunk:
        start = time.perf_counter()
        with self.tracer.span("run", op=index):
            result = self._sweep(self.op_seed(index))
        seconds = time.perf_counter() - start
        means = result.means
        ok = (
            self.executor.executed == self.cells
            and self.executor.hits == 0
            and means["mean_delivery_all"][-1] >= (0.5 if self.smoke else 0.95)
        )
        for point, value in enumerate(means["mean_delivery_all"]):
            self._curve_sums[point] += value
        self._sweeps += 1
        self.fragments.append(_digest({"means": means, "stds": result.stds}))
        counts = {
            "core.deliveries": self._deliveries(result),
            "core.event_messages": sum(means["event_messages"]),
            "experiments.cells_executed": self.cells,
            "membership.rows": sum(means["processes"]),
        }
        return Chunk(
            self.cells, 0 if ok else self.cells, seconds,
            [seconds / self.cells], counts,
        )

    def sample_chunk(self) -> Chunk:
        """Ten cells, one per sweep point, as explicit compile → build →
        execute → metrics: the phase split and the engine/network counts
        ``sweep_scenario`` keeps to itself."""
        from repro.workloads.spec import compile_spec, spec_with

        counts: dict[str, float] = {}
        start = time.perf_counter()
        for position, value in enumerate(SWEEP_VALUES):
            with self.tracer.span("compile", op=-1):
                compiled = compile_spec(spec_with(self.spec, SWEEP_FIELD, value))
            with self.tracer.span("build", op=-1):
                built = compiled.build(self.op_seed(-1 - position))
            with self.tracer.span("run", op=-1):
                built.execute()
            with self.tracer.span("collect_metrics", op=-1):
                built.metrics()
                degradation = built.degradation()
            for key, count in _system_counts(built.system, degradation).items():
                counts[key] = counts.get(key, 0) + count
        seconds = time.perf_counter() - start
        return Chunk(self.cells, 0, seconds, [], counts)

    def finish(self) -> list[str]:
        problems = []
        curve = [total / self._sweeps for total in self._curve_sums]
        # Averaged over the run's sweeps the Fig. 10 curve must rise with
        # the alive fraction; around the percolation threshold (0.3–0.4)
        # a flood either dies within a few hops or takes off — and in the
        # smoke population it is all wobble.
        slack = 1.0 if self.smoke else 0.2
        if any(b < a - slack for a, b in zip(curve, curve[1:])):
            problems.append(f"mean_delivery_all not non-decreasing: {curve}")
        if curve[-1] < (0.5 if self.smoke else 0.99):
            problems.append(f"mean_delivery_all at alive=1.0 is {curve[-1]:.4f}")
        return problems


class CachedSweep(_SweepWorkload):
    name = "cached_sweep"

    def setup(self) -> None:
        super().setup()
        with self.tracer.span("cache_populate"):
            self.cold = self._sweep(self.op_seed(0))
        self._populated = self.executor.executed

    def chunk(self, index: int) -> Chunk:
        cells = self.cells
        reruns = 2 if self.smoke else 20
        failed = 0
        op_seconds = []
        start = time.perf_counter()
        for _ in range(reruns):
            began = time.perf_counter()
            with self.tracer.span("cache_rerun", op=index):
                result = self._sweep(self.op_seed(0))
            op_seconds.append((time.perf_counter() - began) / cells)
            if not (
                self.executor.executed == 0
                and self.executor.hits == cells
                and result.means == self.cold.means
                and result.stds == self.cold.stds
            ):
                failed += cells
        seconds = time.perf_counter() - start
        self.fragments.append(_digest({"means": result.means, "stds": result.stds}))
        return Chunk(
            cells * reruns, failed, seconds, op_seconds,
            {"experiments.cache_hits": cells * reruns},
            deliveries=self._deliveries(result) * reruns,
        )

    def finish(self) -> list[str]:
        if self._populated != self.cells:
            return [f"populate executed {self._populated} cells"]
        return []


# ----------------------------------------------------------------------
# Columnar floods: the clean zero-latency fast path
# ----------------------------------------------------------------------
class ColumnarScale(Workload):
    name = "columnar_scale"
    op = "flood"
    topics = (".t1", ".t1.t2")

    def setup(self) -> None:
        from repro.core.columnar import ColumnarStaticSystem

        bottom = 400 if self.smoke else 10_000
        self.sizes = (bottom // 100, bottom)
        with self.tracer.span("build"):
            system = ColumnarStaticSystem(seed=self.op_seed(0), p_success=0.85)
            for topic, size in zip(self.topics, self.sizes):
                system.add_group(topic, size)
        with self.tracer.span("finalize_membership"):
            system.finalize_static_membership()
        self.system = system

    def _delivered(self) -> int:
        tracker = self.system.tracker
        return sum(tracker.topic_stats(t).delivered for t in tracker.topics())

    def chunk(self, index: int) -> Chunk:
        system = self.system
        stats = system.stats
        before = (
            system.engine.processed, stats.total_sent, stats.total_dropped,
            stats.event_messages_sent(), self._delivered(),
        )
        start = time.perf_counter()
        with self.tracer.span("publish", op=index):
            event = system.publish(self.topics[-1])
        with self.tracer.span("run", op=index):
            system.run_until_idle()
        # dedup bitmasks are per event id; drop the finished flood so the
        # run holds no state that grows with its length
        for topic in self.topics:
            system.group_actor(topic).release_event_state(event.event_id)
        seconds = time.perf_counter() - start
        after = (
            system.engine.processed, stats.total_sent, stats.total_dropped,
            stats.event_messages_sent(), self._delivered(),
        )
        events, sent, dropped, event_messages, delivered = (
            b - a for a, b in zip(before, after)
        )
        ok = (
            delivered >= 0.99 * sum(self.sizes)
            and system.tracker.state_size() <= 2
        )
        self.fragments.append(_digest([sent, delivered]))
        counts = {
            "sim.events": events,
            "net.transmissions": sent,
            "net.dropped": dropped,
            "core.deliveries": delivered,
            "core.event_messages": event_messages,
            "metrics.records": delivered + 1,
        }
        return Chunk(1, 0 if ok else 1, seconds, [seconds], counts)

    def gauges(self) -> dict[str, float]:
        total = sum(self.sizes)
        return {
            "membership.bytes_per_process": self.system.membership_bytes() / total,
            "membership.build_rows": total,
        }


# ----------------------------------------------------------------------
# Full scenario runs: compile → build → execute → post-run queries
# ----------------------------------------------------------------------
class _ScenarioWorkload(Workload):
    op = "scenario run"
    op_floor = 0.0
    run_floor = 0.0

    def spec_for(self, index: int) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        import repro.workloads.spec  # noqa: F401  (import time is set-up)

        self._deliveries: list[float] = []
        self._entries: list[float] = []

    def chunk(self, index: int) -> Chunk:
        from repro.workloads.spec import compile_spec, metrics_digest

        spec = self.spec_for(index)
        seed = self.op_seed(index)
        start = time.perf_counter()
        with self.tracer.span("compile", op=index):
            compiled = compile_spec(spec)
        with self.tracer.span("build", op=index):
            built = compiled.build(seed)
        with self.tracer.span("run", op=index):
            metrics = built.execute()
        with self.tracer.span("collect_metrics", op=index):
            built.delivery_windows(5.0)
            degradation = built.degradation()
        seconds = time.perf_counter() - start
        # the smoke population is too small for the floors to mean anything
        ok = self.smoke or (
            metrics["mean_delivery"] >= self.op_floor and self.check(metrics)
        )
        self._deliveries.append(metrics["mean_delivery"])
        self.fragments.append(metrics_digest(metrics))
        system = built.system
        footprints = [p.memory_footprint for p in system.processes]
        self._entries.append(sum(footprints) / len(footprints))
        return Chunk(
            1, 0 if ok else 1, seconds, [seconds],
            _system_counts(system, degradation),
        )

    def check(self, metrics) -> bool:
        return True

    def finish(self) -> list[str]:
        mean = sum(self._deliveries) / len(self._deliveries)
        if mean < self.run_floor and not self.smoke:
            return [f"mean_delivery over the run is {mean:.4f} < {self.run_floor}"]
        return []

    def gauges(self) -> dict[str, float]:
        return {
            "membership.entries_per_process": sum(self._entries) / len(self._entries)
        }


class LossyStream(_ScenarioWorkload):
    name = "lossy_stream"
    op_floor = 0.97
    run_floor = 0.97

    def spec_for(self, index: int) -> dict:
        # A Poisson(rate 1) stream conditioned on its count — arrival times
        # are sorted uniforms — so every run carries the same work: 80 %
        # on the bottom topic, 20 % on the middle one.
        rng = random.Random(self.op_seed(index))
        bottom, middle = (2, 1) if self.smoke else (4, 1)
        horizon = float(bottom + middle)
        levels = [-1] * bottom + [1] * middle
        rng.shuffle(levels)
        times = sorted(rng.uniform(0.0, horizon) for _ in levels)
        return {
            "name": "ledger-lossy-stream",
            "protocol": "daMulticast",
            "topics": {"kind": "chain", "depth": 2, "prefix": "t"},
            "subscriptions": {
                "kind": "per_level",
                "counts": [2, 4, 20] if self.smoke else [10, 100, 1000],
            },
            "publications": {
                "kind": "mixed",
                "parts": [
                    {"kind": "single", "level": level, "at": at}
                    for level, at in zip(levels, times)
                ],
            },
            "latency": {
                "kind": "uniform", "low": 0.05, "high": 0.2,
                "overrides": {"inter": {"kind": "uniform", "low": 0.2, "high": 0.8}},
            },
            "faults": {
                "loss": {"kind": "bernoulli", "p": 0.05},
                "overrides": {
                    "inter": {
                        "loss": {
                            "kind": "gilbert_elliott",
                            "p_good_bad": 0.05, "p_bad_good": 0.3,
                            "loss_good": 0.0, "loss_bad": 0.9,
                        },
                        "delay_spike": {"p": 0.05, "extra": 2.0},
                    }
                },
            },
            "p_success": 1.0,
        }

    def check(self, metrics) -> bool:
        return metrics["faults_loss"] > 0


class DynamicRepair(_ScenarioWorkload):
    name = "dynamic_repair"
    # A single run publishes two events, one of them right after the
    # attack; its floor is looser than the floor on the run's average.
    op_floor = 0.6
    run_floor = 0.9

    def setup(self) -> None:
        super().setup()
        from repro.workloads.presets import load_preset
        from repro.workloads.spec import spec_with

        self.spec = load_preset("super-link-attack")
        if self.smoke:
            # 11 processes and the same story on a 13-second timeline
            for path, value in (
                ("subscriptions.counts", [2, 3, 6]),
                ("publications.spacing", 6.0),
                ("dynamic.warmup", 5.0),
                ("dynamic.settle", 2.0),
                ("campaign.actions", [
                    {"kind": "kill_super_links", "at": 8.0, "level": -1},
                    {"kind": "recover_all", "at": 10.0},
                ]),
            ):
                self.spec = spec_with(self.spec, path, value)

    def spec_for(self, index: int) -> dict:
        return self.spec


# ----------------------------------------------------------------------
# The live asyncio service
# ----------------------------------------------------------------------
class LivePubsub(Workload):
    name = "live_pubsub"
    op = "publish"
    groups = ((".t1", 6), (".t1.t2", 60))
    replay_publishes = 300
    #: A LiveRuntime records every publish and delivery for its trace, so
    #: its memory grows with the run. Each runtime serves this many chunks
    #: (1 000 publishes), is verified, stopped and collected, and a fresh
    #: one takes over — peak memory then does not depend on how many
    #: publishes the window had time for.
    epoch_chunks = 40

    def setup(self) -> None:
        import repro.service.runtime  # noqa: F401  (import time is set-up)

        if self.smoke:
            self.burst, self.epoch_chunks = 5, 2
        else:
            self.burst = 25
        self.loop = asyncio.new_event_loop()
        self.runtime = None
        self._problems: list[str] = []
        self._lag_ms = 0.0
        with self.tracer.span("build"):
            self._start_runtime(0)

    def _start_runtime(self, index: int) -> None:
        from repro.service.runtime import LiveRuntime

        runtime = LiveRuntime(seed=self.op_seed(index), p_success=0.95)
        pids = [
            {process.pid for process in runtime.add_group(topic, size)}
            for topic, size in self.groups
        ]
        self.bottom_pids = pids[-1]
        runtime.subscribe(self.groups[-1][0], self._on_event)
        self.loop.run_until_complete(runtime.start())
        self.runtime = runtime
        self.callbacks = 0
        self._event_ids: list[list[str]] = []

    def _on_event(self, _event, _pid) -> None:
        self.callbacks += 1

    def _totals(self) -> tuple[int, int, int, int, int, int]:
        status = self.runtime.status()
        network = status["network"]
        return (
            status["queue"]["pending"],
            sum(status["deliveries_by_topic"].values()),
            status["queue"]["executed"],
            sum(network["sent_by_kind"].values()),
            network["sent_by_kind"].get("event", 0),
            sum(network["dropped_by_reason"].values()),
        )

    async def _publish_burst(self, index: int) -> tuple[list[float], list[str]]:
        topic = self.groups[-1][0]
        op_seconds, event_ids = [], []
        for n in range(self.burst):
            began = time.perf_counter()
            event = await self.runtime.publish(topic, index * self.burst + n)
            op_seconds.append(time.perf_counter() - began)
            event_ids.append(str(event.event_id))
        return op_seconds, event_ids

    def chunk(self, index: int) -> Chunk:
        if index and index % self.epoch_chunks == 0:
            self._retire_runtime()
            self._start_runtime(index)
        before = self._totals()
        start = time.perf_counter()
        with self.tracer.span("publish", op=index):
            op_seconds, event_ids = self.loop.run_until_complete(
                self._publish_burst(index)
            )
        seconds = time.perf_counter() - start
        after = self._totals()
        _, delivered, executed, sent, event_messages, dropped = (
            b - a for a, b in zip(before, after)
        )
        self._event_ids.append(event_ids)
        ok = after[0] == 0
        counts = {
            "net.transmissions": sent,
            "net.dropped": dropped,
            "core.deliveries": delivered,
            "core.event_messages": event_messages,
            "metrics.records": delivered + self.burst,
            "service.queue_executed": executed,
        }
        return Chunk(
            self.burst, 0 if ok else self.burst, seconds, op_seconds, counts
        )

    def sample_chunk(self) -> Chunk:
        """The same publishes with the event loop peeled off: a queue
        transport pumped synchronously on a virtual clock."""
        from repro.core.system import DaMulticastSystem
        from repro.net.transport import QueueTransport
        from repro.runtime import SimulationHarness
        from repro.sim.engine import Engine

        engine = Engine()
        transport = QueueTransport(engine)
        harness = SimulationHarness(
            seed=self.op_seed(0), p_success=0.95, clock=engine,
            transport=transport, tracker="streaming",
        )
        system = DaMulticastSystem(mode="static", harness=harness)
        for topic, size in self.groups:
            system.add_group(topic, size)
        system.finalize_static_membership()
        publish_rng = random.Random(self.op_seed(-1))
        topic = self.groups[-1][0]
        members = system.group(topic)
        publishes = self.burst * 8
        start = time.perf_counter()
        for n in range(publishes):
            system.publish(topic, n, publisher=publish_rng.choice(members))
            while transport.next_due() is not None:
                transport.pump(transport.next_due())
        seconds = time.perf_counter() - start
        return Chunk(
            publishes, 0, seconds, [],
            rate_name="service.sync_pump_publishes_per_s",
        )

    def _retire_runtime(self) -> None:
        """Check what the current runtime did, then stop it. The first
        runtime also supplies the digest and is replayed on the engine."""
        from repro.service.replay import replay_live_trace

        runtime, problems = self.runtime, self._problems
        first = not self.fragments
        trace = runtime.trace()
        deliveries = trace["deliveries"]
        at_bottom = sum(
            1 for pids in deliveries.values() for pid in pids
            if pid in self.bottom_pids
        )
        if self.callbacks != at_bottom:
            problems.append(
                f"{self.callbacks} callbacks for {at_bottom} bottom-topic deliveries"
            )
        status = runtime.status()
        if status["queue"]["pending"] != 0:
            problems.append("delivery queue not drained")
        self._lag_ms = max(self._lag_ms, status["scheduler_lag"]["max"] * 1e3)
        if first:
            self.fragments = [
                _digest({event_id: deliveries.get(event_id, []) for event_id in ids})
                for ids in self._event_ids
            ]
            # Replaying every publish would take as long as the run did;
            # the first few hundred already pin the live path to the engine's.
            head = trace["publishes"][: self.replay_publishes]
            kept = {record["event"] for record in head}
            prefix = dict(
                trace,
                publishes=head,
                deliveries={k: v for k, v in deliveries.items() if k in kept},
            )
            with self.tracer.span("replay_verify"):
                if not replay_live_trace(prefix)["matches"]:
                    problems.append("engine replay of the live trace diverged")
        self.loop.run_until_complete(runtime.stop())
        self.runtime = None
        del runtime, trace, deliveries
        gc.collect()  # a stopped runtime is cyclic garbage

    def finish(self) -> list[str]:
        self._retire_runtime()
        return self._problems

    def gauges(self) -> dict[str, float]:
        return {"service.scheduler_lag_max_ms": self._lag_ms}

    def close(self) -> None:
        if self.runtime is not None:
            self.loop.run_until_complete(self.runtime.stop())
        self.loop.close()


WORKLOADS = {
    cls.name: cls
    for cls in (
        PaperSweep, CachedSweep, ColumnarScale, LossyStream, DynamicRepair,
        LivePubsub,
    )
}
