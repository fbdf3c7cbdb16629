"""Tests for the declarative scenario-spec subsystem.

Covers: precise ConfigError validation (unknown keys, bad distributions,
negative rates, impossible references), seed determinism (same spec + seed
⇒ identical metrics digest across serial and ``pool:2``), bundled preset
integrity (every preset runs end-to-end and is bit-identical across CLI
``--jobs 1`` / ``--jobs 2``), and the spec-manipulation helpers.
"""

import copy
import json
from collections import OrderedDict

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.cli import main
from repro.errors import ConfigError
from repro.experiments import ArtifactStore, CachingExecutor, SerialExecutor
from repro.workloads.presets import load_preset, preset_names
from repro.workloads.spec import (
    compile_spec,
    load_spec,
    metrics_digest,
    run_scenario,
    run_spec,
    spec_digest,
    spec_with,
    sweep_scenario,
)

SMALL = {
    "name": "small",
    "topics": {"kind": "chain", "depth": 2, "prefix": "t"},
    "subscriptions": {"kind": "per_level", "counts": [3, 8, 20]},
    "publications": {"kind": "single", "level": -1},
    "failures": {"kind": "stillborn", "alive_fraction": 0.7},
    "params": {"b": 3, "c": 5, "g": 5, "a": 1, "z": 3, "fanout_log_base": 10},
    "p_success": 0.85,
}


def small(**patches) -> dict:
    """SMALL with top-level sections replaced."""
    spec = copy.deepcopy(SMALL)
    spec.update(patches)
    return spec


#: ``metrics_digest(run_spec(preset, 0))`` of every bundled preset.
PRESET_DIGESTS = {
    "baseline-compare": "85d8fee44197bef6a98ba9f02217bbe84c9eceaf3416a1b89ea1bfce994c0357",
    "bootstrap-wave": "513f720ffb00823c56182b17f9498414531841766c52fe10cd982b42efd0f12a",
    "churn-heavy": "31099996979443ad6e45f0215d2ae74b4de8076d99b0e600c8a9746211e5b85e",
    "churn-recover": "5932b65db2973f0ca693371719571f0731577a833432ee51dcfc312992cb01f6",
    "loss-sweep": "f82af04ab4ec27619758b93775c84c2a43081d44a84bc3166a9c46640caa79b4",
    "lossy-wan": "d61e36e86edd9e2620fb5dc782f2b396adad7540e1005ca5b0decf83b71d6994",
    "news-burst": "708210bd1eb9a73089022b3ac2b2e17430730dad76b60e752a9c0f625bceeb6c",
    "paper-vii": "18afc90507277c69c7de0ef10e29976b93daa12362cc5e0bfa5d19b99b6d12f2",
    "partition-heal": "b96f83a8a36c08922ce1b032cbc758702ffd444ebfd0e1750465a62c4defe104",
    "super-link-attack": "1d2f18dd272d4ca8924d7a131583784f98816f547a17f6db0ef5ebd1196fc8d9",
    "zipf-feed": "3b65a8ac2b16857dc7fbba6994f3444fece81d5005824a0401129a32e35a2d11",
}


def dynamic_small(**patches) -> dict:
    """A 14-process dynamic-mode spec with sections replaced."""
    spec = small(
        mode="dynamic",
        subscriptions={"kind": "per_level", "counts": [2, 4, 8]},
        publications={"kind": "burst", "level": -1, "count": 2, "spacing": 6.0},
        dynamic={"warmup": 15.0, "settle": 10.0},
        failures={"kind": "none"},
    )
    spec.update(patches)
    return spec


#: churn makes publication times visible in the metrics
_SHORT_CHURN = {"kind": "churn", "crash_probability": 0.6, "horizon": 6.0}

#: One small spec per section kind, option and default no preset states,
#: keyed like ``KIND_DIGESTS``.
KIND_FIXTURES = {
    # include_root (True) left to its default; publications and failures
    # sections omitted
    "tree-uniform": {
        "name": "tree-uniform",
        "topics": {"kind": "tree", "arity": 2, "depth": 2},
        "subscriptions": {"kind": "uniform", "n": 60},
        "params": {"fanout_log_base": 10},
    },
    "uniform-without-root": small(
        subscriptions={"kind": "uniform", "n": 40, "include_root": False},
        publications={"kind": "poisson", "rate": 1.0, "horizon": 4.0},
    ),
    # exponent (1.0) and include_root (False) left to their defaults
    "zipf-defaults": small(
        topics={"kind": "names", "names": [".a.b", ".a.c", ".d"]},
        subscriptions={"kind": "zipf", "n": 50},
        publications={"kind": "single"},
    ),
    "single-at": small(
        publications={"kind": "single", "level": 1, "at": 2.5},
        failures=_SHORT_CHURN,
    ),
    # start and spacing (0.0) left to their defaults
    "burst-topic-defaults": small(
        publications={"kind": "burst", "topic": ".t1", "count": 3},
        failures=_SHORT_CHURN,
    ),
    "poisson-levels-weights": small(
        publications={
            "kind": "poisson",
            "rate": 1.0,
            "horizon": 5.0,
            "levels": [1, 2],
            "weights": [1.0, 3.0],
        }
    ),
    "poisson-topics-mixed": small(
        publications={
            "kind": "mixed",
            "parts": [
                {
                    "kind": "poisson",
                    "rate": 0.5,
                    "horizon": 6.0,
                    "topics": [".t1", ".t1.t2"],
                },
                {"kind": "single", "topic": ".t1.t2", "at": 1.0},
            ],
        }
    ),
    "dynamic-failures-per-pair": small(
        failures={"kind": "dynamic", "alive_fraction": 0.8, "mode": "per_pair"}
    ),
    # mode (per_attempt) left to its default
    "dynamic-failures-default-mode": small(
        failures={"kind": "dynamic", "alive_fraction": 0.8}
    ),
    # recover_probability (0.5) left to its default
    "churn-default-recover": small(
        publications={"kind": "burst", "level": -1, "count": 4, "spacing": 2.0},
        failures={"kind": "churn", "crash_probability": 0.5, "horizon": 10.0},
    ),
    "partition-by-topic": small(
        failures={"kind": "partition", "islands": "by_topic"}
    ),
    "bootstrap-immediate-interleaved": dynamic_small(
        dynamic={
            "warmup": 15.0,
            "settle": 10.0,
            "bootstrap": {"kind": "immediate", "order": "interleaved"},
        }
    ),
    # no bootstrap section: immediate, by_topic
    "bootstrap-omitted": dynamic_small(),
    # order (by_topic) and start (0.0) left to their defaults
    "bootstrap-waves-defaults": dynamic_small(
        dynamic={
            "warmup": 15.0,
            "settle": 10.0,
            "bootstrap": {"kind": "waves", "wave_size": 4, "interval": 1.0},
        }
    ),
    # a recover fraction (1.0) left to its default
    "campaign-topics-default-fraction": dynamic_small(
        failures={"kind": "churn", "crash_probability": 0.2, "horizon": 30.0},
        campaign={
            "actions": [
                {"kind": "kill_super_links", "at": 16.0, "topic": ".t1.t2"},
                {"kind": "kill_fraction", "at": 17.0, "fraction": 0.5},
                {"kind": "recover", "at": 20.0},
            ]
        },
    ),
    # max_copies (2) left to its default
    "faults-duplicate-spike-factor": small(
        failures={"kind": "none"},
        latency={"kind": "uniform", "low": 0.1, "high": 0.3},
        faults={
            "duplicate": {"p": 0.2},
            "delay_spike": {"p": 0.2, "factor": 3.0},
        },
    ),
    # loss_good (0.0) and loss_bad (1.0) left to their defaults
    "faults-ge-defaults-spike-extra": small(
        failures={"kind": "none"},
        latency={"kind": "exponential", "mean": 0.2},
        faults={
            "loss": {"kind": "gilbert_elliott", "p_good_bad": 0.1, "p_bad_good": 0.5},
            "delay_spike": {"p": 0.3, "extra": 1.5},
            "overrides": {
                "intra": {"duplicate": {"p": 0.3, "max_copies": 3}},
                "inter": {"loss": {"kind": "none"}},
            },
        },
    ),
    # constant delay (0.0) left to its default
    "latency-intra-params-overrides": small(
        latency={
            "kind": "constant",
            "overrides": {"intra": {"kind": "exponential", "mean": 0.3}},
        },
        params={
            "fanout_log_base": 10,
            "overrides": {".t1.t2": {"c": 2, "g": 3}, ".t1": {"z": 4}},
        },
    ),
    "protocol-multicast": small(protocol="multicast"),
    "protocol-naive": small(protocol="naive"),
    "protocol-hierarchical-clusters": small(
        protocol={"name": "hierarchical", "n_clusters": 3}
    ),
    "protocol-hierarchical-default-clusters": small(protocol="hierarchical"),
}

#: ``metrics_digest(run_spec(KIND_FIXTURES[key], 0))``
KIND_DIGESTS = {
    "tree-uniform": "e7f8124fbebade3c9bb498a94cafbda83376fa06cfa45a9d8c146fc460e2b0c8",
    "uniform-without-root": "086ef0d6ac959aa0178cb09e6d3f11f4434a17139c8abf083b62d5975fd1aee9",
    "zipf-defaults": "e980775bbed0965e7fe1bd45875f361679bda8282a2376ee283b1515bcd6f0a1",
    "single-at": "1a4759836b09d6d55a411918a2fe9dca79ace748c8ea7b4f449519a7f2484696",
    "burst-topic-defaults": "0a03165b52b21b6d6c7cde12a952bdf895c604331ebfb0de133d9ae9bac50a32",
    "poisson-levels-weights": "b46311f005d71a00c35074c9056c3e463e3d812ba2513888003bd08ae2b826f8",
    "poisson-topics-mixed": "7782ccd1f565bb198471bcff1bace0677d3adb4dddc71d833cdc014fd7408a36",
    "dynamic-failures-per-pair": "c3d090455e5188a6ccf709fd89f1edc02d2f31e4665ec01f216f782f09f9ce1b",
    "dynamic-failures-default-mode": "6fe04a88b6a7d1a65ab9dda9ef964f45b59e72fb1912c7b4d6c4efac68078486",
    "churn-default-recover": "8ecafcd8b2c62239dc244aedd4b084655296429cadb910f4e07d6a4dbb806479",
    "partition-by-topic": "4f7172089bf1def791197ed398d7dd307c7c1e84f958bf56e4649776ded9218a",
    "bootstrap-immediate-interleaved": "d6e7afe13f5a2ee79a8d4a3b0094be7996520cc58e8aa8cf1466a4c364673003",
    "bootstrap-omitted": "cf8a2092dfe2f32d9964445aaf410cd8d804c98664670590f07cab5deb15ef23",
    "bootstrap-waves-defaults": "d3beb765467b7efadb2672e40b60c7ee4cb9fdc1bffebf2a8e3ee3f147a82cfe",
    "campaign-topics-default-fraction": "abd8f14adc5d911c03fd4a938075c233584c17458ce797657bf252363e8f5cde",
    "faults-duplicate-spike-factor": "16e60734fbd88d672d613280b00a65a7a9c82edaf3550848364fad70ab3eb535",
    "faults-ge-defaults-spike-extra": "416cd448fa323d2090a0e2204054cbce898c4dc76d2ea54caf00bf7f97064ba3",
    "latency-intra-params-overrides": "a3d13a65240cca0e232c08d5479fd18047d44ebda0ae52fe8987e9c66818951a",
    "protocol-multicast": "d83dfdec312d9f5e75c5b40b1b61fb48b36bdd72e685fdc33eafb45cffc8dc35",
    "protocol-naive": "d628c21bd932a3516d26da016f6148b168740c5d674e29e0ad78ec7fda336169",
    "protocol-hierarchical-clusters": "5536db96ef9b798cb7383bf71972403c91b730de3e9f7ca22868e81d3f48911b",
    "protocol-hierarchical-default-clusters": "e8e0bcb4f1e922e97c5e3536feaeb5069c1675facc90c7b58fa97fd60853c593",
}


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key.*'fauilures'"):
            compile_spec(small(fauilures={"kind": "none"}))

    def test_missing_topics(self):
        spec = small()
        del spec["topics"]
        with pytest.raises(ConfigError, match="missing required section 'topics'"):
            compile_spec(spec)

    def test_unknown_topics_kind(self):
        with pytest.raises(ConfigError, match="topics: 'kind'"):
            compile_spec(small(topics={"kind": "ring", "size": 5}))

    def test_unknown_subscription_key(self):
        with pytest.raises(ConfigError, match="subscriptions: unknown key"):
            compile_spec(
                small(
                    subscriptions={"kind": "zipf", "n": 10, "alpha": 2.0}
                )
            )

    def test_per_level_requires_chain(self):
        with pytest.raises(ConfigError, match="per_level.*chain"):
            compile_spec(
                small(
                    topics={"kind": "tree", "arity": 2, "depth": 2},
                    publications={"kind": "single", "topic": ".s0"},
                )
            )

    def test_per_level_count_mismatch(self):
        with pytest.raises(ConfigError, match="2 counts for 3 chain levels"):
            compile_spec(
                small(subscriptions={"kind": "per_level", "counts": [3, 8]})
            )

    def test_negative_count(self):
        with pytest.raises(ConfigError, match="counts must be >= 0"):
            compile_spec(
                small(
                    subscriptions={"kind": "per_level", "counts": [3, -1, 20]}
                )
            )

    def test_zipf_negative_exponent(self):
        with pytest.raises(ConfigError, match="exponent must be >= 0"):
            compile_spec(
                small(
                    subscriptions={"kind": "zipf", "n": 50, "exponent": -0.5}
                )
            )

    def test_explicit_topic_outside_hierarchy(self):
        with pytest.raises(ConfigError, match="not in.*hierarchy"):
            compile_spec(
                small(
                    subscriptions={
                        "kind": "explicit",
                        "counts": {".unrelated": 5},
                    }
                )
            )

    def test_explicit_topic_spelled_twice(self):
        # "a" and ".a" are one topic; summing both into the population
        # check while the build kept only one was a silent wrong number.
        names = {"kind": "names", "names": ["a.b"]}
        counts = {"a": 5, ".a": 7, ".a.b": 3}
        with pytest.raises(
            ConfigError,
            match=r"subscriptions\.counts: topic '\.a' is given twice "
            r"\('\.a' and 'a'\)",
        ):
            compile_spec(
                small(
                    topics=names,
                    subscriptions={"kind": "explicit", "counts": counts},
                    publications={"kind": "single"},
                )
            )

    def test_override_topic_spelled_twice(self):
        overrides = {"t1": {"c": 6}, ".t1": {"c": 7}}
        with pytest.raises(
            ConfigError, match=r"params\.overrides: topic '\.t1' is given twice"
        ):
            compile_spec(small(params={"overrides": overrides}))

    @pytest.mark.parametrize("prefix", ["a.b", "t ", "."])
    def test_chain_prefix_must_be_a_topic_segment(self, prefix):
        with pytest.raises(ConfigError, match="topics: invalid prefix"):
            compile_spec(
                small(topics={"kind": "chain", "depth": 2, "prefix": prefix})
            )

    def test_burst_zero_count(self):
        with pytest.raises(ConfigError, match="count must be >= 1"):
            compile_spec(
                small(publications={"kind": "burst", "level": -1, "count": 0})
            )

    def test_burst_negative_start(self):
        with pytest.raises(ConfigError, match="start must be >= 0"):
            compile_spec(
                small(
                    publications={
                        "kind": "burst",
                        "level": -1,
                        "count": 3,
                        "start": -1.0,
                    }
                )
            )

    def test_poisson_negative_rate(self):
        with pytest.raises(ConfigError, match="rate must be > 0"):
            compile_spec(
                small(
                    publications={
                        "kind": "poisson",
                        "rate": -2.0,
                        "horizon": 10.0,
                    }
                )
            )

    def test_poisson_non_finite_rate(self):
        with pytest.raises(ConfigError, match="rate must be finite"):
            compile_spec(
                small(
                    publications={
                        "kind": "poisson",
                        "rate": float("inf"),
                        "horizon": 10.0,
                    }
                )
            )

    def test_poisson_nan_horizon(self):
        with pytest.raises(ConfigError, match="horizon must be finite"):
            compile_spec(
                small(
                    publications={
                        "kind": "poisson",
                        "rate": 1.0,
                        "horizon": float("nan"),
                    }
                )
            )

    def test_poisson_weights_without_targets(self):
        with pytest.raises(ConfigError, match="weights.*requires explicit"):
            compile_spec(
                small(
                    publications={
                        "kind": "poisson",
                        "rate": 1.0,
                        "horizon": 5.0,
                        "weights": [1.0, 2.0],
                    }
                )
            )

    def test_mixed_rejects_nested_mixed(self):
        with pytest.raises(ConfigError, match=r"parts\[0\]: 'kind'"):
            compile_spec(
                small(
                    publications={
                        "kind": "mixed",
                        "parts": [{"kind": "mixed", "parts": []}],
                    }
                )
            )

    def test_level_out_of_range(self):
        with pytest.raises(ConfigError, match="level 7 out of range"):
            compile_spec(small(publications={"kind": "single", "level": 7}))

    def test_level_requires_chain(self):
        with pytest.raises(ConfigError, match="'level' requires a chain"):
            compile_spec(
                small(
                    topics={"kind": "names", "names": [".a.b"]},
                    subscriptions={
                        "kind": "explicit",
                        "counts": {".a.b": 10},
                    },
                    publications={"kind": "single", "level": -1},
                )
            )

    def test_unknown_failure_kind(self):
        with pytest.raises(ConfigError, match="failures: 'kind'"):
            compile_spec(small(failures={"kind": "meteor"}))

    def test_alive_fraction_out_of_range(self):
        with pytest.raises(ConfigError, match="alive_fraction must be <= 1"):
            compile_spec(
                small(failures={"kind": "stillborn", "alive_fraction": 1.5})
            )

    def test_partition_single_island(self):
        with pytest.raises(ConfigError, match="'islands' must be an integer >= 2"):
            compile_spec(small(failures={"kind": "partition", "islands": 1}))

    def test_churn_requires_horizon(self):
        with pytest.raises(ConfigError, match="missing required key 'horizon'"):
            compile_spec(
                small(failures={"kind": "churn", "crash_probability": 0.5})
            )

    def test_params_unknown_key(self):
        with pytest.raises(ConfigError, match="params: unknown key"):
            compile_spec(small(params={"b": 3, "beta": 2}))

    def test_params_domain_error(self):
        with pytest.raises(ConfigError, match="params: .*a <= z"):
            compile_spec(small(params={"a": 5, "z": 2}))

    def test_overrides_require_damulticast(self):
        with pytest.raises(ConfigError, match="overrides require protocol"):
            compile_spec(
                small(
                    protocol="broadcast",
                    params={"overrides": {".t1": {"c": 6}}},
                )
            )

    def test_unknown_protocol(self):
        with pytest.raises(ConfigError, match="protocol must be one of"):
            compile_spec(small(protocol="carrier-pigeon"))

    def test_protocol_options_only_for_hierarchical(self):
        with pytest.raises(ConfigError, match="only valid for 'hierarchical'"):
            compile_spec(
                small(protocol={"name": "broadcast", "n_clusters": 4})
            )

    def test_p_success_out_of_range(self):
        with pytest.raises(ConfigError, match="p_success must be <= 1"):
            compile_spec(small(p_success=1.2))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_spec("definitely-not-a-preset")

    def test_publication_topic_without_subscribers(self):
        spec = small(
            subscriptions={"kind": "per_level", "counts": [3, 8, 0]},
            publications={"kind": "single", "level": -1},
        )
        with pytest.raises(ConfigError, match="has no subscribers"):
            run_spec(spec, seed=0)

    @pytest.mark.parametrize(
        "publications",
        [
            {"kind": "single", "level": 0},
            {"kind": "burst", "topic": ".", "count": 2},
            {"kind": "poisson", "rate": 1.0, "horizon": 4.0, "levels": [2, 0]},
            {"kind": "poisson", "rate": 1.0, "horizon": 4.0, "topics": ["."]},
            {"kind": "mixed", "parts": [{"kind": "single"}, {"kind": "single", "level": 0}]},
        ],
    )
    def test_fixed_population_empty_target_fails_at_compile(
        self, publications, tmp_path
    ):
        # a fixed population is known before any seed: publishing to an
        # empty group is a spec error, not a failure inside the first cell
        spec = small(
            subscriptions={"kind": "per_level", "counts": [0, 10, 100]},
            publications=publications,
        )
        message = r"^publications.*publication topic '\.' has no subscribers"
        with pytest.raises(ConfigError, match=message):
            compile_spec(spec)
        executor = CachingExecutor(
            SerialExecutor(), ArtifactStore(tmp_path), "empty-target"
        )
        with pytest.raises(ConfigError, match=message):
            sweep_scenario(
                spec, "p_success", [0.5, 1.0], runs=1, executor=executor
            )
        assert (executor.executed, executor.hits) == (0, 0)


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=3),
    st.floats(allow_nan=False), st.lists(st.integers(), max_size=3),
)
_KEYS = st.sampled_from("abcd")
_SPECS = st.dictionaries(
    _KEYS,
    st.recursive(
        _LEAVES, lambda inner: st.dictionaries(_KEYS, inner, max_size=4),
        max_leaves=12,
    ),
    max_size=4,
)
_PATHS = st.lists(_KEYS, min_size=1, max_size=4)
_VALUES = st.one_of(_LEAVES, st.dictionaries(_KEYS, _LEAVES, max_size=2))


def _deepcopy_then_set(spec, parts, value):
    """The reference ``spec_with``: copy everything, then set."""
    result = node = copy.deepcopy(spec)
    for part in parts[:-1]:
        if node.get(part) is None:
            node[part] = {}
        elif not isinstance(node[part], dict):
            raise ConfigError(f"{part!r} is not a mapping")
        node = node[part]
    node[parts[-1]] = value
    return result


def _mapping_ids(value) -> set[int]:
    if not isinstance(value, dict):
        return set()
    return {id(value)}.union(*(_mapping_ids(child) for child in value.values()))


class TestSpecWith:
    def test_sets_nested_field(self):
        modified = spec_with(SMALL, "failures.alive_fraction", 0.5)
        assert modified["failures"]["alive_fraction"] == 0.5
        assert SMALL["failures"]["alive_fraction"] == 0.7  # original intact

    def test_creates_missing_sections(self):
        spec = small()
        del spec["failures"]
        modified = spec_with(spec, "failures.kind", "none")
        assert modified["failures"] == {"kind": "none"}

    def test_rejects_empty_path(self):
        with pytest.raises(ConfigError, match="invalid spec path"):
            spec_with(SMALL, "failures..kind", 1)

    def test_rejects_non_mapping_intermediate(self):
        with pytest.raises(ConfigError, match="is not a mapping"):
            spec_with(SMALL, "name.sub", 1)

    @settings(max_examples=300, deadline=None)
    @given(spec=_SPECS, parts=_PATHS, value=_VALUES)
    @example(spec={"a": {"b": 1}, "c": {"d": [1]}}, parts=["e", "f", "g"], value=2)
    @example(spec={"a": {"b": {"c": 1}}, "d": {}}, parts=["a", "b", "c"], value={})
    def test_copies_only_the_path(self, spec, parts, value):
        """By value the result is deepcopy-then-set; the input is left as
        it was; every mapping on the path is new and everything off the
        path is shared."""
        snapshot = copy.deepcopy(spec)
        path = ".".join(parts)
        try:
            expected = _deepcopy_then_set(spec, parts, value)
        except ConfigError:
            with pytest.raises(ConfigError, match="is not a mapping"):
                spec_with(spec, path, value)
            assert spec == snapshot
            return
        result = spec_with(spec, path, value)
        assert result == expected
        assert spec == snapshot
        input_mappings = _mapping_ids(spec)
        node, source = result, spec
        for depth, part in enumerate(parts):
            assert id(node) not in input_mappings
            for key, child in node.items():
                if key != part:
                    assert child is source[key]
            if depth < len(parts) - 1:
                node = node[part]
                source = source.get(part) or {}


class TestDeterminism:
    def test_same_spec_same_seed_same_metrics(self):
        assert run_spec(SMALL, seed=7) == run_spec(SMALL, seed=7)

    def test_different_seeds_differ(self):
        digest_a = metrics_digest(run_spec(SMALL, seed=0))
        digest_b = metrics_digest(run_spec(SMALL, seed=1))
        assert digest_a != digest_b

    def test_run_scenario_bit_identical_across_jobs(self):
        serial = run_scenario(SMALL, runs=4, master_seed=3, executor="serial")
        parallel = run_scenario(SMALL, runs=4, master_seed=3, executor="pool:2")
        assert serial == parallel
        assert metrics_digest(serial) == metrics_digest(parallel)

    def test_numeric_sweep_bit_identical_across_jobs(self):
        kwargs = dict(runs=2, master_seed=0)
        serial = sweep_scenario(
            SMALL, "failures.alive_fraction", [0.5, 1.0], executor="serial", **kwargs
        )
        parallel = sweep_scenario(
            SMALL, "failures.alive_fraction", [0.5, 1.0], executor="pool:2", **kwargs
        )
        assert serial.points == parallel.points
        assert serial.means == parallel.means
        assert serial.stds == parallel.stds

    def test_non_numeric_sweep_over_protocol(self):
        result = sweep_scenario(
            SMALL, "protocol", ["daMulticast", "broadcast"], runs=1
        )
        assert result.points == ["daMulticast", "broadcast"]
        # broadcast floods everyone from one global group: more messages.
        messages = result.means["event_messages"]
        assert messages[1] > messages[0] * 0.5  # both ran and produced data
        parallel = sweep_scenario(
            SMALL, "protocol", ["daMulticast", "broadcast"], runs=1, executor="pool:2"
        )
        assert parallel.means == result.means

    def test_sweep_validates_every_point_eagerly(self):
        with pytest.raises(ConfigError, match="alive_fraction must be <= 1"):
            sweep_scenario(SMALL, "failures.alive_fraction", [0.5, 2.0], runs=1)

    @pytest.fixture
    def compiled_specs(self, monkeypatch):
        """Every ``compile_spec`` call made under a fresh compile memo."""
        import repro.workloads.spec as spec_module

        compiled = []
        real_compile = spec_module.compile_spec

        def counting_compile(spec):
            compiled.append(spec)
            return real_compile(spec)

        monkeypatch.setattr(spec_module, "_COMPILE_CACHE", OrderedDict())
        monkeypatch.setattr(spec_module, "compile_spec", counting_compile)
        return compiled

    def test_sweep_compiles_each_point_once(self, compiled_specs, tmp_path):
        """The eager validation and the serial cells share one memo: ten
        points plus a fully cached re-run compile ten specs (it was thirty:
        validate, cell, validate again)."""
        values = [round(0.1 * i, 1) for i in range(1, 11)]
        executor = CachingExecutor(
            SerialExecutor(), ArtifactStore(tmp_path), "compile-once"
        )
        kwargs = dict(runs=1, master_seed=4, executor=executor)
        cold = sweep_scenario(SMALL, "failures.alive_fraction", values, **kwargs)
        assert (executor.executed, executor.hits) == (10, 0)
        warm = sweep_scenario(SMALL, "failures.alive_fraction", values, **kwargs)
        assert (executor.executed, executor.hits) == (0, 10)
        assert warm.means == cold.means
        assert len(compiled_specs) == 10

    def test_cached_rerun_makes_no_deep_copy(self, monkeypatch, tmp_path):
        """Exact count: a fully cached 10-point paper-vii re-run executes
        no cell and calls ``copy.deepcopy`` zero times (it made 11 when
        the sweep deep-copied its base and spec_with the whole spec per
        point). Only top-level calls count: the recursion passes a memo."""
        values = [round(0.1 * i, 1) for i in range(1, 11)]
        executor = CachingExecutor(
            SerialExecutor(), ArtifactStore(tmp_path), "no-deep-copy"
        )
        kwargs = dict(runs=1, master_seed=5, executor=executor)
        spec = load_preset("paper-vii")
        cold = sweep_scenario(spec, "failures.alive_fraction", values, **kwargs)
        assert (executor.executed, executor.hits) == (10, 0)
        top_level_calls = []
        real_deepcopy = copy.deepcopy

        def counting_deepcopy(value, memo=None, *args):
            if memo is None:
                top_level_calls.append(type(value).__name__)
            return real_deepcopy(value, memo, *args)

        monkeypatch.setattr(copy, "deepcopy", counting_deepcopy)
        warm = sweep_scenario(spec, "failures.alive_fraction", values, **kwargs)
        assert (executor.executed, executor.hits) == (0, 10)
        assert (warm.means, warm.stds) == (cold.means, cold.stds)
        assert top_level_calls == []

    def test_cached_rerun_reads_and_encodes_each_cell_once(
        self, monkeypatch, tmp_path
    ):
        """Exact counts on the hit path: a fully cached 10-point paper-vii
        re-run opens 10 store files and makes 20 canonical encodes (10
        cell keys, 10 point-validation digests), executing no cell."""
        import builtins

        import repro.experiments.artifacts as artifacts

        values = [round(0.1 * i, 1) for i in range(1, 11)]
        executor = CachingExecutor(
            SerialExecutor(), ArtifactStore(tmp_path), "hit-path"
        )
        kwargs = dict(runs=1, master_seed=5, executor=executor)
        spec = load_preset("paper-vii")
        cold = sweep_scenario(spec, "failures.alive_fraction", values, **kwargs)
        assert (executor.executed, executor.hits) == (10, 0)
        opened, encoded = [], []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file).startswith(str(tmp_path)):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        class CountingEncoder(json.JSONEncoder):
            def encode(self, o):
                encoded.append(sorted(o))
                return super().encode(o)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(
            artifacts,
            "_CANONICAL_ENCODER",
            CountingEncoder(sort_keys=True, separators=(",", ":"), default=str),
        )
        warm = sweep_scenario(spec, "failures.alive_fraction", values, **kwargs)
        assert (executor.executed, executor.hits) == (0, 10)
        assert (warm.means, warm.stds) == (cold.means, cold.stds)
        assert len(opened) == 10
        cell_keys = ["master_seed", "run_key", "schema", "seed_name"]
        assert encoded.count(cell_keys) == 10
        assert encoded.count(sorted(spec)) == 10
        assert len(encoded) == 20

    def test_store_keys_are_pinned(self):
        """A store written by an earlier version is served as is."""
        key = ArtifactStore("unused").cell_key(
            run_key="rk",
            # repro-lint: allow[DET004]: pins the address of a cell the paper-vii sweep's own label names
            seed_name="scenario/paper-vii/failures.alive_fraction/0.1/0",
            master_seed=5,
        )
        assert key == (
            "026a1b61992bbdedd8310c0be01f8a69b57f3c72a5c0725d80acfb8a044c7bdb"
        )
        assert spec_digest(load_preset("paper-vii")) == (
            "123cb5f35af24cd1bfb0f93f02a9ea950424f26a192ece14e52f794d4f9c61cc"
        )

    def test_bad_last_point_raises_before_the_first_cell(
        self, compiled_specs, tmp_path
    ):
        executor = CachingExecutor(
            SerialExecutor(), ArtifactStore(tmp_path), "bad-last-point"
        )
        values = [round(0.1 * i, 1) for i in range(1, 10)] + [2.0]
        with pytest.raises(ConfigError, match="alive_fraction must be <= 1"):
            sweep_scenario(
                SMALL, "failures.alive_fraction", values, runs=1,
                executor=executor,
            )
        assert (executor.executed, executor.hits) == (0, 0)
        assert not list(tmp_path.rglob("*.json"))
        assert len(compiled_specs) == 10  # nine good points, then the bad one


class TestProtocolsAndFailures:
    @pytest.mark.parametrize(
        "protocol", ["broadcast", "multicast", "hierarchical", "naive"]
    )
    def test_every_baseline_runs(self, protocol):
        metrics = run_spec(small(protocol=protocol), seed=0)
        assert metrics["events"] == 1.0
        assert metrics["event_messages"] > 0

    def test_dynamic_failures_run(self):
        metrics = run_spec(
            small(
                failures={
                    "kind": "dynamic",
                    "alive_fraction": 0.8,
                    "mode": "per_pair",
                }
            ),
            seed=0,
        )
        assert 0.0 <= metrics["mean_delivery"] <= 1.0

    def test_churn_failures_run(self):
        metrics = run_spec(
            small(
                publications={
                    "kind": "burst",
                    "level": -1,
                    "count": 5,
                    "spacing": 2.0,
                },
                failures={
                    "kind": "churn",
                    "crash_probability": 0.5,
                    "horizon": 10.0,
                },
            ),
            seed=0,
        )
        assert metrics["events"] == 5.0

    def test_partition_by_topic_blocks_climb(self):
        # Every group its own island and no healing: the event cannot
        # cross into the supergroups, so delivery on the publication
        # topic stays intra-island.
        metrics = run_spec(
            small(failures={"kind": "partition", "islands": "by_topic"}),
            seed=0,
        )
        assert metrics["events"] == 1.0

    def test_partition_heal_restores_delivery(self):
        split = small(
            failures={"kind": "partition", "islands": 2},
            publications={"kind": "single", "level": -1},
        )
        healed = spec_with(split, "failures.heals_at", 0.0)
        degraded = run_spec(split, seed=0)["mean_delivery"]
        restored = run_spec(healed, seed=0)["mean_delivery"]
        assert restored >= degraded

    def test_params_overrides_apply(self):
        cheap = small(params={"c": 1, "g": 1, "z": 2, "fanout_log_base": 10})
        tuned = spec_with(
            cheap, "params.overrides", {".t1.t2": {"c": 8, "g": 8}}
        )
        cheap_messages = run_spec(cheap, seed=2)["event_messages"]
        tuned_messages = run_spec(tuned, seed=2)["event_messages"]
        assert tuned_messages > cheap_messages

    def test_uniform_and_tree(self):
        metrics = run_spec(
            {
                "name": "tree-uniform",
                "topics": {"kind": "tree", "arity": 2, "depth": 2},
                "subscriptions": {"kind": "uniform", "n": 60},
                "publications": {"kind": "single"},
                "params": {"fanout_log_base": 10},
            },
            seed=3,
        )
        assert metrics["processes"] == 60.0


class TestPresets:
    def test_expected_catalog(self):
        assert preset_names() == [
            "baseline-compare",
            "bootstrap-wave",
            "churn-heavy",
            "churn-recover",
            "loss-sweep",
            "lossy-wan",
            "news-burst",
            "paper-vii",
            "partition-heal",
            "super-link-attack",
            "zipf-feed",
        ]

    @pytest.mark.parametrize(
        "name, digest",
        [
            pytest.param(name, PRESET_DIGESTS[name], id=name)
            for name in preset_names()
        ],
    )
    def test_preset_runs_end_to_end(self, name, digest):
        metrics = run_spec(load_preset(name), seed=0)
        assert metrics, "metrics dict must not be empty"
        assert metrics["events"] >= 1.0
        assert metrics["processes"] > 0
        assert metrics_digest(metrics) == digest

    @pytest.mark.parametrize("key", sorted(KIND_FIXTURES))
    def test_kind_fixture_digest(self, key):
        metrics = run_spec(KIND_FIXTURES[key], seed=0)
        assert metrics_digest(metrics) == KIND_DIGESTS[key]

    def test_paper_vii_matches_section7_population(self):
        metrics = run_spec(load_preset("paper-vii"), seed=0)
        assert metrics["processes"] == 1110.0
        assert metrics["parasites"] == 0.0

    def test_baseline_compare_exposes_parasites(self):
        metrics = run_spec(load_preset("baseline-compare"), seed=0)
        assert metrics["parasites"] > 0


class TestCli:
    @pytest.mark.parametrize("name", preset_names())
    def test_preset_bit_identical_across_jobs(self, name, capsys):
        """Acceptance: every bundled preset runs from the CLI and is
        bit-identical across --jobs 1 and --jobs 2 for the same seed."""
        args = ["scenario", "run", name, "--runs", "2", "--seed", "3"]
        assert main([*args, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*args, "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert "metrics digest:" in serial

    def test_run_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SMALL))
        assert main(["scenario", "run", str(path), "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "scenario small" in out
        assert "event_messages" in out

    def test_sweep_command(self, capsys):
        assert (
            main(
                [
                    "scenario",
                    "run",
                    "paper-vii",
                    "--runs",
                    "1",
                    "--set",
                    "subscriptions.counts=[3, 8, 20]",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "scenario",
                    "sweep",
                    "paper-vii",
                    "--field",
                    "failures.alive_fraction",
                    "--values",
                    "0.5",
                    "1.0",
                    "--runs",
                    "1",
                    "--set",
                    "subscriptions.counts=[3, 8, 20]",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "failures.alive_fraction" in out
        assert "mean_delivery" in out

    def test_list_command(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper-vii" in out and "zipf-feed" in out
        assert main(["scenario", "list", "--names"]) == 0
        names = capsys.readouterr().out.split()
        assert names == preset_names()

    def test_set_override_changes_result(self, capsys):
        base = ["scenario", "run", "paper-vii", "--runs", "1",
                "--set", "subscriptions.counts=[3, 8, 20]"]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert main([*base, "--set", "p_success=1.0"]) == 0
        second = capsys.readouterr().out
        assert first != second

    def test_invalid_spec_exits_2(self, capsys):
        assert main(["scenario", "run", "no-such-preset"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_invalid_chain_prefix_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                small(topics={"kind": "chain", "depth": 2, "prefix": "a.b"})
            )
        )
        assert main(["scenario", "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: topics: invalid prefix 'a.b'")
        assert err.count("\n") == 1

    def test_empty_publication_level_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty-level.json"
        path.write_text(
            json.dumps(
                small(
                    subscriptions={"kind": "per_level", "counts": [0, 10, 100]},
                    publications={"kind": "single", "level": 0},
                )
            )
        )
        assert main(["scenario", "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: publications: publication topic '.' has no subscribers"
        )
        assert err.count("\n") == 1

    def test_bad_set_pair_exits_2(self, capsys):
        assert (
            main(["scenario", "run", "paper-vii", "--set", "nonsense"]) == 2
        )
        assert "PATH=VALUE" in capsys.readouterr().err
