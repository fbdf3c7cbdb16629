"""Scenario-level fault injection: spec validation, determinism contracts,
and the graceful-degradation acceptance sweep."""

import copy

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import ConfigError
from repro.workloads.presets import load_preset
from repro.workloads.spec import compile_spec, run_spec, spec_with

BASE = {
    "name": "faulty",
    "topics": {"kind": "chain", "depth": 2, "prefix": "t"},
    "subscriptions": {"kind": "per_level", "counts": [4, 10, 24]},
    "publications": {"kind": "burst", "count": 3, "spacing": 1.0, "level": -1},
    "params": {"b": 3, "c": 5, "g": 5, "a": 1, "z": 3, "fanout_log_base": 10},
    "p_success": 1.0,
}


def spec(**patches) -> dict:
    out = copy.deepcopy(BASE)
    out.update(patches)
    return out


class TestValidation:
    def test_unknown_fault_key(self):
        with pytest.raises(ConfigError, match="faults"):
            compile_spec(spec(faults={"losss": {"kind": "bernoulli", "p": 0.1}}))

    def test_unknown_loss_kind(self):
        with pytest.raises(ConfigError, match="faults.loss"):
            compile_spec(spec(faults={"loss": {"kind": "uniform", "p": 0.1}}))

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan"), "0.1", True])
    def test_bad_loss_probability(self, bad):
        with pytest.raises(ConfigError, match="faults.loss"):
            compile_spec(spec(faults={"loss": {"kind": "bernoulli", "p": bad}}))

    def test_gilbert_elliott_frozen_chain(self):
        with pytest.raises(ConfigError, match="p_good_bad"):
            compile_spec(
                spec(
                    faults={
                        "loss": {
                            "kind": "gilbert_elliott",
                            "p_good_bad": 0.0,
                            "p_bad_good": 0.0,
                        }
                    }
                )
            )

    def test_duplicate_max_copies_floor(self):
        with pytest.raises(ConfigError, match="max_copies"):
            compile_spec(
                spec(faults={"duplicate": {"p": 0.1, "max_copies": 1}})
            )

    def test_delay_spike_shape(self):
        with pytest.raises(ConfigError, match="exactly one"):
            compile_spec(spec(faults={"delay_spike": {"p": 0.1}}))
        with pytest.raises(ConfigError, match="exactly one"):
            compile_spec(
                spec(
                    faults={
                        "delay_spike": {"p": 0.1, "factor": 2.0, "extra": 1.0}
                    }
                )
            )

    def test_overrides_require_damulticast(self):
        bad = spec(
            protocol="broadcast",
            faults={
                "overrides": {
                    "inter": {"loss": {"kind": "bernoulli", "p": 0.5}}
                }
            },
        )
        with pytest.raises(ConfigError, match="daMulticast"):
            compile_spec(bad)

    def test_overrides_unknown_link_class(self):
        with pytest.raises(ConfigError, match="link class"):
            compile_spec(
                spec(
                    faults={
                        "overrides": {
                            "wan": {"loss": {"kind": "bernoulli", "p": 0.5}}
                        }
                    }
                )
            )

    def test_overrides_cannot_nest(self):
        with pytest.raises(ConfigError):
            compile_spec(
                spec(
                    faults={
                        "overrides": {
                            "inter": {"overrides": {"intra": {}}},
                        }
                    }
                )
            )

    def test_valid_composed_section_compiles(self):
        compile_spec(
            spec(
                faults={
                    "loss": {
                        "kind": "gilbert_elliott",
                        "p_good_bad": 0.05,
                        "p_bad_good": 0.3,
                        "loss_bad": 0.9,
                    },
                    "duplicate": {"p": 0.01},
                    "delay_spike": {"p": 0.02, "extra": 1.0},
                    "overrides": {
                        "inter": {"loss": {"kind": "bernoulli", "p": 0.2}}
                    },
                }
            )
        )


class TestDeterminismContracts:
    def test_faults_none_is_bit_identical_to_omitted(self):
        baseline = run_spec(spec(), seed=7)
        assert run_spec(spec(faults={}), seed=7) == baseline
        assert run_spec(spec(faults={"loss": {"kind": "none"}}), seed=7) == (
            baseline
        )

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=5, deadline=None)
    def test_disabled_faults_never_perturb_any_seed(self, seed):
        assert run_spec(
            spec(faults={"loss": {"kind": "none"}}), seed=seed
        ) == run_spec(spec(), seed=seed)

    def test_p_zero_stages_draw_only_from_the_fault_stream(self):
        """Configured-but-inert stages (p=0) must not change the trajectory:
        their coins come from the dedicated spec/faults stream, so every
        point of a loss sweep shares the network/latency draw sequence."""
        inert = spec(
            faults={
                "loss": {"kind": "bernoulli", "p": 0.0},
                "duplicate": {"p": 0.0},
                "delay_spike": {"p": 0.0, "extra": 5.0},
            }
        )
        assert run_spec(inert, seed=3) == run_spec(spec(), seed=3)

    def test_faulty_run_is_reproducible(self):
        lossy = spec(faults={"loss": {"kind": "bernoulli", "p": 0.3}})
        assert run_spec(lossy, seed=11) == run_spec(lossy, seed=11)

    def test_one_compiled_spec_builds_fresh_link_state(self):
        """Gilbert–Elliott keeps per-link state: two builds of one
        CompiledSpec must each start from an empty chain table, or the
        second run replays the first one's bad links."""
        bursty = {"kind": "gilbert_elliott", "p_good_bad": 0.3, "p_bad_good": 0.3}
        compiled = compile_spec(
            spec(
                faults={
                    "loss": bursty,
                    "overrides": {"inter": {"loss": bursty}},
                }
            )
        )
        assert compiled.run(seed=5) == compiled.run(seed=5)

    def test_metrics_key_set_is_fault_invariant(self):
        clean = run_spec(spec(), seed=0)
        lossy = run_spec(
            spec(faults={"loss": {"kind": "bernoulli", "p": 0.3}}), seed=0
        )
        assert set(clean) == set(lossy)
        assert clean["faults_loss"] == 0.0
        assert clean["dropped_fault_loss"] == 0.0
        assert lossy["faults_loss"] > 0
        assert lossy["faults_loss"] == lossy["dropped_fault_loss"]

    def test_spec_with_reaches_fault_fields(self):
        base = spec(faults={"loss": {"kind": "bernoulli", "p": 0.0}})
        swept = spec_with(base, "faults.loss.p", 0.2)
        assert swept["faults"]["loss"]["p"] == 0.2
        assert base["faults"]["loss"]["p"] == 0.0  # original untouched
        compile_spec(swept)


class TestGracefulDegradation:
    """The PR's acceptance sweep: delivery ratio vs Bernoulli loss rate."""

    GRID = [0.0, 0.05, 0.1, 0.2]
    SEEDS = [0, 1, 2]

    @staticmethod
    def curve(base: dict) -> list[float]:
        points = []
        for p in TestGracefulDegradation.GRID:
            swept = spec_with(base, "faults.loss.p", p)
            points.append(
                sum(
                    run_spec(swept, seed=s)["mean_delivery"]
                    for s in TestGracefulDegradation.SEEDS
                )
                / len(TestGracefulDegradation.SEEDS)
            )
        return points

    def test_damulticast_degrades_gracefully(self):
        base = spec(faults={"loss": {"kind": "bernoulli", "p": 0.0}})
        curve = self.curve(base)
        assert curve[0] == 1.0  # perfect network, perfect delivery
        # graceful: monotone-ish (small seed noise allowed), never a cliff
        for prev, cur in zip(curve, curve[1:]):
            assert cur <= prev + 0.02
        assert all(point > 0.8 for point in curve)  # degrades, not collapses

    def test_broadcast_baseline_degrades_gracefully(self):
        base = spec(
            protocol="broadcast",
            faults={"loss": {"kind": "bernoulli", "p": 0.0}},
        )
        curve = self.curve(base)
        assert curve[0] == 1.0
        for prev, cur in zip(curve, curve[1:]):
            assert cur <= prev + 0.02

    def test_loss_increases_monotonically_in_fault_counters(self):
        base = spec(faults={"loss": {"kind": "bernoulli", "p": 0.0}})
        losses = [
            run_spec(spec_with(base, "faults.loss.p", p), seed=0)[
                "faults_loss"
            ]
            for p in self.GRID
        ]
        assert losses[0] == 0.0
        assert losses == sorted(losses)
        assert losses[-1] > 0

    def test_delivery_windows_and_degradation_queries(self):
        compiled = compile_spec(
            spec(faults={"loss": {"kind": "bernoulli", "p": 0.3}})
        )
        built = compiled.build(seed=4)
        built.execute()
        series = built.delivery_windows(window=1.0)
        assert series
        assert all(
            point.ratio is not None and 0.0 <= point.ratio <= 1.0
            for point in series
        )
        summary = built.degradation()
        assert summary
        for row in summary.values():
            assert row["delivered_fraction"] is not None
            assert row["delivered_fraction"] <= 1.0

    def test_clean_run_delivers_exactly_expected(self):
        built = compile_spec(spec()).build(seed=4)
        built.execute()
        for row in built.degradation().values():
            assert row["delivered_fraction"] == 1.0


class TestPresets:
    def test_lossy_wan_preset_runs_and_faults_fire(self):
        metrics = [run_spec(load_preset("lossy-wan"), seed=s) for s in (0, 1)]
        assert any(
            m["faults_loss"] + m["faults_delay_spike"] > 0 for m in metrics
        )
        assert all(m["mean_delivery"] > 0.9 for m in metrics)

    def test_loss_sweep_preset_base_point_is_clean(self):
        metrics = run_spec(load_preset("loss-sweep"), seed=0)
        assert metrics["faults_loss"] == 0.0
        assert metrics["mean_delivery"] == 1.0
