"""Live service mode: pub/sub API, status surface and the replay oracle.

The golden-compare contract (the tentpole's acceptance criterion): a
recorded live trace replayed through the discrete-event engine yields
*identical* per-topic delivery sets. The live runtime's wall-clock
execution and the engine's virtual-time execution are two transports
under one protocol core — any divergence is a seam bug.
"""

import asyncio
import json

import pytest

from repro.errors import ConfigError, UnknownTopic
from repro.net.partitions import FullyConnected
from repro.service import (
    LiveRuntime,
    delivery_sets_from_trace,
    replay_live_trace,
)
from repro.sim.rng import STREAM_REGISTRY
from tests.test_net_transport import reception_hook


def run_live(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60.0))


def build_runtime(seed=0, **kwargs):
    runtime = LiveRuntime(seed=seed, **kwargs)
    runtime.add_group(".conf", 5)
    runtime.add_group(".conf.dsn", 8)
    return runtime


class TestPubSubApi:
    def test_publish_delivers_to_whole_group(self):
        async def scenario():
            runtime = build_runtime()
            async with runtime:
                event = await runtime.publish(".conf.dsn", {"n": 1})
            return runtime, event

        runtime, event = run_live(scenario())
        trace = runtime.trace()
        pids = trace["deliveries"][str(event.event_id)]
        # Inclusion: a .conf.dsn event reaches its group and the .conf
        # supergroup — all 13 processes on a perfect network.
        assert pids == sorted(p.pid for p in runtime.system.processes)

    def test_subscribe_callback_fires_per_delivering_process(self):
        async def scenario():
            runtime = build_runtime()
            sub_conf = []
            sub_dsn = []
            runtime.subscribe(".conf", lambda e, pid: sub_conf.append(pid))
            runtime.subscribe(".conf.dsn", lambda e, pid: sub_dsn.append(pid))
            async with runtime:
                await runtime.publish(".conf.dsn", "payload")
            return runtime, sub_conf, sub_dsn

        runtime, sub_conf, sub_dsn = run_live(scenario())
        conf_pids = set(runtime.system.group_pids(".conf"))
        dsn_pids = set(runtime.system.group_pids(".conf.dsn"))
        assert set(sub_conf) == conf_pids
        assert set(sub_dsn) == dsn_pids

    def test_publish_to_empty_topic_raises(self):
        async def scenario():
            runtime = build_runtime()
            async with runtime:
                with pytest.raises(UnknownTopic):
                    await runtime.publish(".nobody")

        run_live(scenario())

    def test_publish_requires_start(self):
        runtime = build_runtime()
        with pytest.raises(ConfigError):
            asyncio.run(runtime.publish(".conf"))

    def test_double_start_rejected(self):
        async def scenario():
            runtime = build_runtime()
            async with runtime:
                with pytest.raises(ConfigError):
                    await runtime.start()

        run_live(scenario())

    def test_static_topology_frozen_after_start(self):
        async def scenario():
            runtime = build_runtime()
            async with runtime:
                with pytest.raises(ConfigError):
                    runtime.add_group(".late", 3)

        run_live(scenario())

    def test_status_surface(self):
        async def scenario():
            runtime = build_runtime()
            async with runtime:
                for n in range(3):
                    await runtime.publish(".conf.dsn", n)
                return runtime.status()

        status = run_live(scenario())
        assert status["published"] == 3
        assert status["running"] is True
        assert status["processes"] == 13
        # the streaming tracker keys by publication topic: each .conf.dsn
        # event reaches its 8 group members plus the 5-member supergroup
        assert status["deliveries_by_topic"][".conf.dsn"] == 3 * 13
        assert status["queue"]["pending"] == 0
        assert status["queue"]["executed"] == status["queue"]["dispatched"] > 0
        assert sum(status["network"]["delivered_by_kind"].values()) > 0
        assert status["scheduler_lag"]["max"] >= 0.0

    def test_stop_shuts_down_cleanly(self):
        async def scenario():
            runtime = build_runtime()
            await runtime.start()
            await runtime.publish(".conf", "x")
            await runtime.stop()
            return runtime.status()

        status = run_live(scenario())
        assert status["running"] is False
        assert status["queue"]["pending"] == 0


class TestFailingDeliveries:
    def test_subscriber_exception_is_counted_and_contained(self):
        """A subscriber that raises must not kill the pump: the publish
        returns, every process still delivers, the failure is counted."""

        async def scenario():
            runtime = build_runtime()
            calls = []

            def flaky(event, pid):
                calls.append(pid)
                if len(calls) == 2:
                    raise ValueError("subscriber bug")

            runtime.subscribe(".conf.dsn", flaky)
            async with runtime:
                event = await asyncio.wait_for(runtime.publish(".conf.dsn"), 2)
                assert not runtime._pump_task.done()
                # ...and the runtime keeps serving afterwards
                await asyncio.wait_for(runtime.publish(".conf.dsn"), 2)
                return runtime, event, calls, runtime.status()

        runtime, event, calls, status = run_live(scenario())
        dsn_pids = sorted(runtime.system.group_pids(".conf.dsn"))
        assert len(dsn_pids) == 8
        assert sorted(calls[:8]) == dsn_pids and len(calls) == 16
        delivered = runtime.trace()["deliveries"][str(event.event_id)]
        assert delivered == sorted(p.pid for p in runtime.system.processes)
        assert status["subscriber_errors"] == 1
        assert status["queue"]["pending"] == 0
        assert status["queue"]["executed"] == status["queue"]["dispatched"]

    def test_raising_delivery_fails_the_publish_instead_of_hanging(self):
        """An error that is not a subscriber's ends the pump task; whoever
        waits for the drain gets that error, now and on every later call."""

        async def scenario():
            runtime = build_runtime()
            await runtime.start()

            def boom():
                raise RuntimeError("delivery path broke")

            runtime.transport.dispatch(0.0, boom, ())
            with pytest.raises(RuntimeError, match="delivery path broke"):
                await asyncio.wait_for(runtime.publish(".conf.dsn"), 2)
            assert runtime._pump_task.done()
            with pytest.raises(RuntimeError, match="delivery path broke"):
                await asyncio.wait_for(runtime.drain(), 2)
            queue = runtime.status()["queue"]
            assert queue["pending"] > 0
            assert queue["dispatched"] == queue["executed"] + queue["pending"]
            with pytest.raises(RuntimeError, match="delivery path broke"):
                await runtime.stop()

        run_live(scenario())

    def test_a_process_raising_mid_wave_leaves_the_rest_queued(self):
        """A process that raises on its second reception kills the pump in
        the middle of a wave. What was not delivered stays queued — the
        rest of the wave and the fan-outs already collected — with the
        counts balanced, and pumping by hand finishes the flood exactly as
        with one transport entry per fan-out."""

        class OpenPartition(FullyConnected):
            """Not ``FullyConnected`` itself: one entry per fan-out."""

        async def scenario(per_fan_out):
            runtime = build_runtime(seed=2)
            network = runtime.system.network
            if per_fan_out:
                network.install_partition_model(OpenPartition())
            process = runtime.system.group(".conf.dsn")[3]

            def raising(count, message):
                if count == 2:
                    raise RuntimeError("process broke")

            with reception_hook(process.pid, raising):
                await runtime.start()
                with pytest.raises(RuntimeError, match="process broke"):
                    await asyncio.wait_for(runtime.publish(".conf.dsn"), 2)
                at_raise = runtime.status()["queue"]
                runtime.transport.pump()
                resumed = runtime.status()["queue"]
                with pytest.raises(RuntimeError, match="process broke"):
                    await runtime.stop()
            deliveries = runtime.trace()["deliveries"]
            return at_raise, resumed, deliveries, runtime.system.stats.as_dict()

        waves = run_live(scenario(per_fan_out=False))
        fan_outs = run_live(scenario(per_fan_out=True))
        at_raise, resumed, _, _ = waves
        assert at_raise["pending"] > 0
        assert at_raise["dispatched"] == at_raise["executed"] + at_raise["pending"]
        assert resumed["pending"] == 0
        assert resumed["dispatched"] == resumed["executed"]
        assert waves == fan_outs


class TestReplayOracle:
    def test_trace_is_json_serializable(self):
        async def scenario():
            runtime = build_runtime(seed=3)
            async with runtime:
                await runtime.publish(".conf", [1, 2])
            return runtime.trace()

        trace = run_live(scenario())
        round_tripped = json.loads(json.dumps(trace))
        assert round_tripped["seed"] == 3
        assert round_tripped["version"] == 1
        assert len(round_tripped["publishes"]) == 1

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_live_trace_replays_identically_on_engine(self, seed):
        """THE golden compare: live delivery sets == engine delivery sets."""

        async def scenario():
            runtime = build_runtime(seed=seed)
            async with runtime:
                for n in range(4):
                    await runtime.publish(".conf.dsn", {"n": n})
                await runtime.publish(".conf", "up")
            return runtime.trace()

        trace = run_live(scenario())
        result = replay_live_trace(trace)
        assert result["matches"], (
            result["deliveries"],
            delivery_sets_from_trace(trace),
        )
        # and the replayed system really delivered to everyone (perfect
        # network): every event reaches its full inclusion set
        for record in trace["publishes"]:
            assert trace["deliveries"][record["event"]]

    def test_replay_with_channel_loss(self):
        """p_success < 1: both sides draw identical channel-loss outcomes
        because the shared streams see identical draw sequences."""

        async def scenario():
            runtime = build_runtime(seed=11, p_success=0.8)
            async with runtime:
                for n in range(3):
                    await runtime.publish(".conf.dsn", n)
            return runtime.trace()

        trace = run_live(scenario())
        assert trace["p_success"] == 0.8
        assert replay_live_trace(trace)["matches"]

    def test_replay_rejects_unknown_version(self):
        with pytest.raises(ConfigError):
            replay_live_trace({"version": 99, "mode": "static"})

    def test_replay_rejects_dynamic_traces(self):
        with pytest.raises(ConfigError):
            replay_live_trace(
                {"version": 1, "mode": "dynamic", "seed": 0}
            )

    def test_replay_detects_divergent_trace(self):
        async def scenario():
            runtime = build_runtime(seed=2)
            async with runtime:
                await runtime.publish(".conf", "x")
            return runtime.trace()

        trace = run_live(scenario())
        trace["deliveries"] = {
            key: pids[:-1] for key, pids in trace["deliveries"].items()
        }
        assert replay_live_trace(trace)["matches"] is False

    def test_live_publish_stream_is_registered(self):
        """DET004 satellite: the live runtime's dedicated stream label is
        declared in the registry."""
        assert "live/publish" in STREAM_REGISTRY["run"]


class TestServeCli:
    def test_serve_smoke_with_replay_verification(self, capsys, tmp_path):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "serve",
                "--topics",
                ".conf:4",
                ".conf.dsn:6",
                "--publish",
                "8",
                "--seed",
                "5",
                "--verify-replay",
                "--trace-out",
                str(trace_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "delivery sets match" in out
        assert "0 pending" in out
        saved = json.loads(trace_path.read_text())
        assert len(saved["publishes"]) == 8
        assert replay_live_trace(saved)["matches"]

    def test_serve_rejects_bad_topic_spec(self, capsys):
        from repro.cli import main

        assert main(["serve", "--topics", "nocount"]) == 2
        assert "TOPIC:COUNT" in capsys.readouterr().err

    def test_serve_rejects_a_topic_split_around_another(self, capsys):
        """A static group is one pid block: all of a topic's members come
        before the next topic's."""
        from repro.cli import main

        assert main(["serve", "--topics", ".a:5", ".b:5", ".a:5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: static group .a is one contiguous pid block")
