"""Dynamic-mode scenario specs: validation, determinism, campaign goldens.

The contracts under test:

* ``mode: "dynamic"`` specs compile to full-protocol runs (staggered
  bootstrap, maintenance, optional campaign, latency models) with the
  same precise ``ConfigError`` validation as static specs;
* ``run_spec(spec, seed)`` stays a pure function of ``(spec, seed)`` in
  dynamic mode — bit-identical metrics across repeated in-process runs,
  ``--jobs 1`` / ``--jobs 2``, and serial-vs-spawned-pool execution
  (hypothesis over master seeds);
* campaign actions realize deterministically: the action log of the
  ``churn-recover`` preset is pinned as a golden;
* NaN/inf latency parameters, churn transition times and campaign action
  times are rejected eagerly (the satellite bugfixes of this PR).
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ConfigError
from repro.workloads.presets import load_preset, preset_names
from repro.workloads.spec import (
    compile_spec,
    metrics_digest,
    run_scenario,
    run_spec,
    spec_with,
    sweep_scenario,
)

#: Small and fast: 14 processes, short warmup, two events, one campaign.
DYNAMIC = {
    "name": "dyn-small",
    "mode": "dynamic",
    "topics": {"kind": "chain", "depth": 2, "prefix": "t"},
    "subscriptions": {"kind": "per_level", "counts": [2, 4, 8]},
    "publications": {
        "kind": "burst", "level": -1, "count": 2, "start": 0.0, "spacing": 6.0
    },
    "dynamic": {
        "bootstrap": {"kind": "staggered", "start": 0.0, "spacing": 0.2},
        "warmup": 15.0,
        "settle": 10.0,
    },
    "campaign": {
        "actions": [
            {"kind": "kill_fraction", "at": 18.0, "fraction": 0.25, "level": -1},
            {"kind": "recover", "at": 26.0, "fraction": 1.0},
        ]
    },
    "latency": {"kind": "exponential", "mean": 0.2},
    "p_success": 0.9,
}

DYNAMIC_PRESETS = ("bootstrap-wave", "churn-recover", "super-link-attack")


def dynamic(**patches) -> dict:
    """DYNAMIC with top-level sections replaced."""
    spec = copy.deepcopy(DYNAMIC)
    spec.update(patches)
    return spec


class TestValidation:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="'mode' must be 'static' or 'dynamic'"):
            compile_spec(dynamic(mode="hybrid"))

    def test_dynamic_section_requires_dynamic_mode(self):
        spec = dynamic()
        del spec["mode"], spec["campaign"]
        with pytest.raises(ConfigError, match="'dynamic' section requires mode"):
            compile_spec(spec)

    def test_campaign_requires_dynamic_mode(self):
        spec = dynamic()
        del spec["mode"], spec["dynamic"]
        with pytest.raises(ConfigError, match="'campaign' section requires mode"):
            compile_spec(spec)

    def test_dynamic_mode_rejects_baselines(self):
        with pytest.raises(ConfigError, match="requires protocol 'daMulticast'"):
            compile_spec(dynamic(protocol="broadcast"))

    def test_dynamic_mode_rejects_stillborn(self):
        with pytest.raises(ConfigError, match="static-mode plan"):
            compile_spec(
                dynamic(failures={"kind": "stillborn", "alive_fraction": 0.7})
            )

    def test_campaign_incompatible_with_dynamic_failures(self):
        with pytest.raises(ConfigError, match="cannot combine with 'dynamic'"):
            compile_spec(
                dynamic(failures={"kind": "dynamic", "alive_fraction": 0.8})
            )

    def test_unknown_dynamic_key(self):
        with pytest.raises(ConfigError, match="dynamic: unknown key"):
            compile_spec(
                dynamic(dynamic={"warmup": 5.0, "cooldown": 1.0})
            )

    def test_unknown_bootstrap_kind(self):
        with pytest.raises(ConfigError, match="dynamic.bootstrap: 'kind'"):
            compile_spec(
                dynamic(dynamic={"bootstrap": {"kind": "thundering-herd"}})
            )

    def test_bad_bootstrap_order(self):
        with pytest.raises(ConfigError, match="'order' must be"):
            compile_spec(
                dynamic(
                    dynamic={
                        "bootstrap": {
                            "kind": "staggered", "spacing": 0.1, "order": "random"
                        }
                    }
                )
            )

    def test_staggered_requires_spacing(self):
        with pytest.raises(ConfigError, match="missing required key 'spacing'"):
            compile_spec(dynamic(dynamic={"bootstrap": {"kind": "staggered"}}))

    def test_waves_require_positive_interval(self):
        with pytest.raises(ConfigError, match="interval must be > 0"):
            compile_spec(
                dynamic(
                    dynamic={
                        "bootstrap": {
                            "kind": "waves", "wave_size": 4, "interval": 0.0
                        }
                    }
                )
            )

    def test_campaign_needs_actions(self):
        with pytest.raises(ConfigError, match="non-empty list of action"):
            compile_spec(dynamic(campaign={"actions": []}))

    def test_unknown_action_kind(self):
        with pytest.raises(ConfigError, match=r"campaign.actions\[0\]: 'kind'"):
            compile_spec(
                dynamic(campaign={"actions": [{"kind": "nuke", "at": 1.0}]})
            )

    def test_action_nan_time_rejected(self):
        with pytest.raises(ConfigError, match="at must be finite"):
            compile_spec(
                dynamic(
                    campaign={
                        "actions": [
                            {"kind": "recover_all", "at": float("nan")}
                        ]
                    }
                )
            )

    def test_kill_fraction_out_of_range(self):
        with pytest.raises(ConfigError, match="fraction must be <= 1"):
            compile_spec(
                dynamic(
                    campaign={
                        "actions": [
                            {"kind": "kill_fraction", "at": 1.0, "fraction": 1.5}
                        ]
                    }
                )
            )

    def test_kill_super_links_needs_target(self):
        with pytest.raises(ConfigError, match="needs a 'topic' or 'level'"):
            compile_spec(
                dynamic(
                    campaign={
                        "actions": [{"kind": "kill_super_links", "at": 1.0}]
                    }
                )
            )

    def test_action_topic_outside_hierarchy(self):
        with pytest.raises(ConfigError, match="not in the declared"):
            compile_spec(
                dynamic(
                    campaign={
                        "actions": [
                            {
                                "kind": "kill_fraction",
                                "at": 1.0,
                                "fraction": 0.5,
                                "topic": ".elsewhere",
                            }
                        ]
                    }
                )
            )

    @pytest.mark.parametrize(
        "latency,message",
        [
            ({"kind": "constant", "delay": float("nan")}, "delay must be finite"),
            ({"kind": "uniform", "low": float("nan"), "high": 1.0}, "low must be finite"),
            ({"kind": "uniform", "low": 0.0, "high": float("inf")}, "high must be finite"),
            ({"kind": "exponential", "mean": float("inf")}, "mean must be finite"),
            ({"kind": "exponential", "mean": 0.0}, "mean must be > 0"),
            ({"kind": "uniform", "low": 2.0, "high": 1.0}, "need low <= high"),
            ({"kind": "teleport"}, "latency: 'kind'"),
        ],
    )
    def test_bad_latency_sections(self, latency, message):
        with pytest.raises(ConfigError, match=message):
            compile_spec(dynamic(latency=latency))

    def test_unknown_link_class(self):
        with pytest.raises(ConfigError, match="unknown link class 'wan'"):
            compile_spec(
                dynamic(
                    latency={
                        "kind": "constant",
                        "delay": 0.1,
                        "overrides": {"wan": {"kind": "constant", "delay": 1.0}},
                    }
                )
            )

    def test_link_overrides_require_damulticast(self):
        spec = dynamic(protocol="broadcast")
        del spec["mode"], spec["dynamic"], spec["campaign"]
        spec["latency"] = {
            "kind": "constant",
            "delay": 0.1,
            "overrides": {"inter": {"kind": "constant", "delay": 1.0}},
        }
        with pytest.raises(ConfigError, match="per-link-class latency requires"):
            compile_spec(spec)

    def test_nested_overrides_rejected(self):
        with pytest.raises(ConfigError, match="overrides\\['inter'\\]: unknown key"):
            compile_spec(
                dynamic(
                    latency={
                        "kind": "constant",
                        "overrides": {
                            "inter": {
                                "kind": "constant",
                                "overrides": {},
                            }
                        },
                    }
                )
            )


class TestDynamicRuns:
    def test_metrics_keys_match_static(self):
        static = dynamic()
        del static["mode"], static["dynamic"], static["campaign"]
        assert set(run_spec(DYNAMIC, seed=0)) == set(run_spec(static, seed=0))

    def test_events_published_and_delivered(self):
        metrics = run_spec(DYNAMIC, seed=0)
        assert metrics["events"] == 2.0
        assert metrics["event_messages"] > 0
        assert 0.0 < metrics["mean_delivery"] <= 1.0
        assert metrics["processes"] == 14.0

    def test_churn_failures_in_dynamic_mode(self):
        spec = dynamic(
            failures={
                "kind": "churn",
                "crash_probability": 0.3,
                "horizon": 20.0,
            }
        )
        del spec["campaign"]
        metrics = run_spec(spec, seed=1)
        assert metrics["events"] == 2.0

    def test_campaign_composes_with_churn_failures(self):
        spec = dynamic(
            failures={
                "kind": "churn",
                "crash_probability": 0.2,
                "horizon": 20.0,
            }
        )
        built = compile_spec(spec).build(seed=3)
        built.execute()
        kinds = [kind for _, kind, _ in built.campaign.log.actions]
        assert kinds == ["crash_fraction", "recover"]

    def test_interleaved_order_differs_from_by_topic(self):
        by_topic = run_spec(DYNAMIC, seed=2)
        interleaved = run_spec(
            spec_with(DYNAMIC, "dynamic.bootstrap.order", "interleaved"), seed=2
        )
        assert metrics_digest(by_topic) != metrics_digest(interleaved)

    def test_immediate_bootstrap_is_default(self):
        spec = dynamic(dynamic={"warmup": 15.0, "settle": 10.0})
        metrics = run_spec(spec, seed=0)
        assert metrics["events"] == 2.0

    def test_super_link_attack_heals(self):
        built = compile_spec(load_preset("super-link-attack")).build(seed=0)
        metrics = built.execute()
        kinds = [kind for _, kind, _ in built.campaign.log.actions]
        assert kinds == ["crash_super_links", "recover"]
        # The second event publishes after recover_all: the healed tables
        # must still carry it upward.
        assert metrics["events"] == 2.0
        assert metrics["mean_delivery"] > 0.5


class TestCampaignGolden:
    #: Captured at the commit introducing dynamic-mode specs: the exact
    #: action log of the churn-recover preset, seed 0. Any change to the
    #: spec RNG streams, pid assignment order or campaign sampling shows
    #: up here immediately.
    GOLDEN_ACTIONS = [
        (30.0, "crash_fraction", (16, 29, 27, 24, 23, 21)),
        (45.0, "recover", (21, 27, 24, 29, 16, 23)),
    ]
    GOLDEN_DIGEST = (
        "b575f4770200c0c0b205bf83e182f4b51fd223a7aa8b399d1a04ed4870cdb604"
    )

    def test_churn_recover_action_log_golden(self):
        import hashlib

        built = compile_spec(load_preset("churn-recover")).build(seed=0)
        built.execute()
        actions = built.campaign.log.actions
        assert actions == self.GOLDEN_ACTIONS
        payload = json.dumps(actions, separators=(",", ":"))
        assert hashlib.sha256(payload.encode()).hexdigest() == self.GOLDEN_DIGEST


class TestDeterminism:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_run_spec_pure_in_seed(self, seed):
        assert run_spec(DYNAMIC, seed=seed) == run_spec(DYNAMIC, seed=seed)

    @settings(max_examples=3, deadline=None)
    @given(master_seed=st.integers(0, 2**32))
    def test_run_scenario_bit_identical_across_jobs(self, master_seed):
        serial = run_scenario(
            DYNAMIC, runs=2, master_seed=master_seed, executor="serial"
        )
        parallel = run_scenario(
            DYNAMIC, runs=2, master_seed=master_seed, executor="pool:2"
        )
        assert serial == parallel
        assert metrics_digest(serial) == metrics_digest(parallel)

    def test_sweep_bit_identical_serial_vs_pool(self):
        kwargs = dict(runs=2, master_seed=7)
        serial = sweep_scenario(
            DYNAMIC, "p_success", [0.85, 1.0], executor="serial", **kwargs
        )
        parallel = sweep_scenario(
            DYNAMIC, "p_success", [0.85, 1.0], executor="pool:2", **kwargs
        )
        assert serial.points == parallel.points
        assert serial.means == parallel.means
        assert serial.stds == parallel.stds

    def test_different_seeds_differ(self):
        assert metrics_digest(run_spec(DYNAMIC, seed=0)) != metrics_digest(
            run_spec(DYNAMIC, seed=1)
        )


class TestDynamicPresets:
    def test_presets_are_dynamic_mode(self):
        for name in DYNAMIC_PRESETS:
            assert load_preset(name)["mode"] == "dynamic"

    @pytest.mark.parametrize("name", DYNAMIC_PRESETS)
    def test_preset_runs_with_nonempty_metrics(self, name):
        metrics = run_spec(load_preset(name), seed=0)
        assert metrics
        assert metrics["events"] >= 1.0
        assert metrics["mean_delivery"] > 0.0

    def test_catalog_contains_dynamic_presets(self):
        assert set(DYNAMIC_PRESETS) <= set(preset_names())

    @pytest.mark.parametrize("name", DYNAMIC_PRESETS)
    def test_close_cancels_the_timers_pending_at_the_horizon(self, name):
        """A closed system's maintenance and bootstrap timers neither run
        on the closed network (they crashed in ``Network._deliver``) nor
        keep its processes alive through the engine's queue."""
        built = compile_spec(load_preset(name)).build(0)
        built.execute()
        engine = built.system.harness.engine
        assert engine.pending > 0
        built.system.close()
        assert engine.pending == 0
        horizon = engine.now + 50
        assert engine.run(until=horizon) == 0
        assert engine.now == horizon


class TestCli:
    def test_dynamic_preset_bit_identical_across_jobs(self, capsys):
        """Acceptance: a mode='dynamic' preset with a campaign and
        non-constant latency produces non-empty metrics bit-identical
        across --jobs 1 and --jobs 2."""
        args = ["scenario", "run", "churn-recover", "--runs", "2", "--seed", "1"]
        assert main([*args, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*args, "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert "metrics digest:" in serial
        assert "mean_delivery" in serial

    def test_sweep_out_then_render(self, tmp_path, capsys):
        """Acceptance: scenario render emits a table from a sweep output."""
        out = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "scenario", "sweep", "churn-recover",
                    "--field", "p_success", "--values", "0.9", "1.0",
                    "--runs", "1", "--out", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-scenario-sweep-v1"
        assert payload["points"] == [0.9, 1.0]
        assert main(["scenario", "render", str(out)]) == 0
        table = capsys.readouterr().out
        assert "p_success" in table and "mean_delivery" in table
        assert main(["scenario", "render", str(out), "--format", "csv"]) == 0
        csv_out = capsys.readouterr().out
        assert csv_out.splitlines()[0].startswith("p_success,")
        assert len(csv_out.splitlines()) == 3

    def test_run_out_then_render_with_metric_subset(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert (
            main(
                [
                    "scenario", "run", "bootstrap-wave",
                    "--runs", "1", "--out", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "scenario", "render", str(out),
                    "--metrics", "mean_delivery", "events",
                    "--format", "json",
                ]
            )
            == 0
        )
        rendered = json.loads(capsys.readouterr().out)
        assert [row["metric"] for row in rendered["rows"]] == [
            "mean_delivery",
            "events",
        ]

    def test_render_unknown_metric_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert (
            main(
                [
                    "scenario", "run", "bootstrap-wave",
                    "--runs", "1", "--out", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(["scenario", "render", str(out), "--metrics", "nope"]) == 2
        )
        assert "unknown metric" in capsys.readouterr().err

    def test_render_missing_file_exits_2(self, capsys):
        assert main(["scenario", "render", "no-such-payload.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_nan_latency_override_exits_2(self, capsys):
        """Acceptance: NaN latency input exits 2 with a precise ConfigError
        (json.loads parses a bare NaN, so --set can inject one)."""
        assert (
            main(
                [
                    "scenario", "run", "churn-recover",
                    "--set", "latency.mean=NaN",
                ]
            )
            == 2
        )
        assert "mean must be finite" in capsys.readouterr().err
