"""Every refusal of the scenario-spec compiler, one table row each.

``compile_spec`` reads each section once, in its ``_parse_<section>``
function, and every structural or domain problem must raise a
:class:`~repro.errors.ConfigError` that names the section, the key and
the bad value. ``tests/test_scenario_spec.py``, ``test_scenario_dynamic.py``
and ``test_scenario_faults.py`` pin the refusals a preset author meets
first; the table here covers the rest of the compiler's refusals, so a
parser that stops checking a key (or starts accepting a wrong type)
fails by name. Each row is a spec that differs from a valid one in one
place, and the message is matched from its section prefix on.
"""

import copy
import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.workloads.spec import (
    compile_spec,
    load_spec,
    run_spec,
    spec_with,
    sweep_scenario,
)

VALID = {
    "name": "valid",
    "topics": {"kind": "chain", "depth": 2, "prefix": "t"},
    "subscriptions": {"kind": "per_level", "counts": [3, 8, 20]},
    "publications": {"kind": "single", "level": -1},
    "failures": {"kind": "stillborn", "alive_fraction": 0.7},
    "params": {"b": 3, "c": 5, "g": 5, "a": 1, "z": 3, "fanout_log_base": 10},
    "p_success": 0.85,
}

DYNAMIC = dict(
    VALID,
    mode="dynamic",
    subscriptions={"kind": "per_level", "counts": [2, 4, 8]},
    publications={"kind": "burst", "level": -1, "count": 2, "spacing": 6.0},
    dynamic={"warmup": 15.0, "settle": 10.0},
    failures={"kind": "churn", "crash_probability": 0.2, "horizon": 30.0},
)

NAMES = {"kind": "names", "names": [".a.b", ".a.c", ".d"]}


def valid(**sections) -> dict:
    """VALID with top-level sections replaced."""
    spec = copy.deepcopy(VALID)
    spec.update(sections)
    return spec


def dynamic(**sections) -> dict:
    """DYNAMIC with top-level sections replaced."""
    spec = copy.deepcopy(DYNAMIC)
    spec.update(sections)
    return spec


def poisson(**options) -> dict:
    return {"kind": "poisson", "rate": 1.0, "horizon": 5.0, **options}


def campaign(*actions) -> dict:
    return {"actions": list(actions)}


def bootstrap(**section) -> dict:
    return {"warmup": 15.0, "settle": 10.0, "bootstrap": section}


SPEC_ROWS = [
    # -- the spec itself
    ("name-empty", valid(name=""), r"spec: 'name' must be a non-empty string"),
    ("name-not-a-string", valid(name=7), r"spec: 'name' must be a non-empty string, got 7"),
    ("description-not-a-string", valid(description=["x"]), r"spec: 'description' must be a string"),
    ("mode-unknown", valid(mode="hybrid"), r"spec: 'mode' must be 'static' or 'dynamic', got 'hybrid'"),
    ("p-success-not-a-number", valid(p_success="high"), r"spec: p_success must be a number, got 'high'"),
    ("p-success-negative", valid(p_success=-0.1), r"spec: p_success must be >= 0"),
    ("p-success-nan", valid(p_success=float("nan")), r"spec: p_success must be finite"),
    # -- protocol
    ("protocol-not-a-name", valid(protocol=["broadcast"]), r"protocol must be a string or a mapping"),
    ("protocol-unknown-key", valid(protocol={"name": "hierarchical", "levels": 2}), r"protocol: unknown key\(s\) 'levels'"),
    ("protocol-mapping-without-name", valid(protocol={"n_clusters": 3}), r"protocol must be one of .*, got None"),
    ("n-clusters-one", valid(protocol={"name": "hierarchical", "n_clusters": 1}), r"protocol: n_clusters must be >= 2, got 1"),
    ("n-clusters-fraction", valid(protocol={"name": "hierarchical", "n_clusters": 2.5}), r"protocol: n_clusters must be an integer, got 2.5"),
    # -- topics
    ("topics-not-a-mapping", valid(topics=["t1"]), r"topics must be a mapping, got list"),
    ("chain-negative-depth", valid(topics={"kind": "chain", "depth": -1}), r"topics: depth must be >= 0, got -1"),
    ("chain-fractional-depth", valid(topics={"kind": "chain", "depth": 1.5}), r"topics: depth must be an integer, got 1.5"),
    ("chain-missing-depth", valid(topics={"kind": "chain"}), r"topics: missing required key 'depth'"),
    ("chain-empty-prefix", valid(topics={"kind": "chain", "depth": 2, "prefix": ""}), r"topics: prefix must be a non-empty string, got ''"),
    ("chain-numeric-prefix", valid(topics={"kind": "chain", "depth": 2, "prefix": 7}), r"topics: prefix must be a non-empty string, got 7"),
    ("chain-unknown-key", valid(topics={"kind": "chain", "depth": 2, "arity": 2}), r"topics: unknown key\(s\) 'arity'"),
    ("tree-zero-arity", valid(topics={"kind": "tree", "arity": 0, "depth": 2}), r"topics: arity must be >= 1, got 0"),
    ("tree-zero-depth", valid(topics={"kind": "tree", "arity": 2, "depth": 0}), r"topics: depth must be >= 1, got 0"),
    ("tree-missing-arity", valid(topics={"kind": "tree", "depth": 2}), r"topics: missing required key 'arity'"),
    ("tree-unknown-key", valid(topics={"kind": "tree", "arity": 2, "depth": 2, "prefix": "t"}), r"topics: unknown key\(s\) 'prefix'"),
    ("names-empty", valid(topics={"kind": "names", "names": []}), r"topics: 'names' must be a non-empty list"),
    ("names-a-string", valid(topics={"kind": "names", "names": ".a.b"}), r"topics: 'names' must be a non-empty list"),
    ("names-non-string-entry", valid(topics={"kind": "names", "names": [".a", 3]}), r"topics\.names: topic name must be a string, got 3"),
    ("names-malformed-entry", valid(topics={"kind": "names", "names": [".a..b"]}), r"topics\.names: invalid topic name '\.a\.\.b'"),
    ("names-bad-segment", valid(topics={"kind": "names", "names": [".a.b c"]}), r"topics\.names: invalid topic name '\.a\.b c'"),
    # -- subscriptions
    ("subscriptions-not-a-mapping", valid(subscriptions=[3, 8, 20]), r"subscriptions must be a mapping, got list"),
    ("subscriptions-unknown-kind", valid(subscriptions={"kind": "gaussian", "n": 10}), r"subscriptions: 'kind' must be one of .*, got 'gaussian'"),
    ("per-level-counts-a-string", valid(subscriptions={"kind": "per_level", "counts": "3,8,20"}), r"subscriptions: 'counts' must be a list of integers"),
    ("per-level-counts-missing", valid(subscriptions={"kind": "per_level"}), r"subscriptions: 'counts' must be a list of integers"),
    ("per-level-fractional-count", valid(subscriptions={"kind": "per_level", "counts": [3, 8.0, 20]}), r"subscriptions: counts must be integers, got 8\.0"),
    ("per-level-boolean-count", valid(subscriptions={"kind": "per_level", "counts": [3, True, 20]}), r"subscriptions: counts must be integers, got True"),
    ("per-level-all-zero", valid(subscriptions={"kind": "per_level", "counts": [0, 0, 0]}), r"subscriptions: population must not be empty"),
    ("explicit-counts-a-list", valid(topics=NAMES, subscriptions={"kind": "explicit", "counts": [3]}, publications={"kind": "single"}), r"subscriptions\.counts must be a mapping, got list"),
    ("explicit-fractional-count", valid(topics=NAMES, subscriptions={"kind": "explicit", "counts": {".a.b": 2.5}}, publications={"kind": "single"}), r"subscriptions\.counts\['\.a\.b'\] must be an integer, got 2\.5"),
    ("explicit-negative-count", valid(topics=NAMES, subscriptions={"kind": "explicit", "counts": {".a.b": -2}}, publications={"kind": "single"}), r"subscriptions\.counts\['\.a\.b'\] must be >= 0, got -2"),
    ("explicit-all-zero", valid(topics=NAMES, subscriptions={"kind": "explicit", "counts": {".a.b": 0, ".d": 0}}, publications={"kind": "single"}), r"subscriptions: population must not be empty"),
    ("explicit-topic-not-a-string", valid(topics=NAMES, subscriptions={"kind": "explicit", "counts": {3: 4}}, publications={"kind": "single"}), r"subscriptions\.counts: topic name must be a string, got 3"),
    ("uniform-zero-n", valid(subscriptions={"kind": "uniform", "n": 0}), r"subscriptions: n must be >= 1, got 0"),
    ("uniform-include-root-not-a-bool", valid(subscriptions={"kind": "uniform", "n": 10, "include_root": "yes"}), r"subscriptions: include_root must be a boolean, got 'yes'"),
    ("uniform-unknown-key", valid(subscriptions={"kind": "uniform", "n": 10, "exponent": 1.0}), r"subscriptions: unknown key\(s\) 'exponent'"),
    ("zipf-missing-n", valid(subscriptions={"kind": "zipf"}), r"subscriptions: missing required key 'n'"),
    ("zipf-include-root-an-int", valid(subscriptions={"kind": "zipf", "n": 10, "include_root": 1}), r"subscriptions: include_root must be a boolean, got 1"),
    # -- publications
    ("publications-not-a-mapping", valid(publications="single"), r"publications must be a mapping, got str"),
    ("publications-unknown-kind", valid(publications={"kind": "flood"}), r"publications: 'kind' must be one of single, burst, poisson, mixed, got 'flood'"),
    ("single-topic-and-level", valid(publications={"kind": "single", "topic": ".t1", "level": 1}), r"publications: give 'topic' or 'level', not both"),
    ("single-topic-outside-hierarchy", valid(publications={"kind": "single", "topic": ".zz"}), r"publications: topic '\.zz' is not in the declared hierarchy"),
    ("single-topic-not-a-string", valid(publications={"kind": "single", "topic": 1}), r"publications: topic name must be a string, got 1"),
    ("single-boolean-level", valid(publications={"kind": "single", "level": True}), r"publications: level must be an integer, got True"),
    ("single-level-below-range", valid(publications={"kind": "single", "level": -4}), r"publications: level -4 out of range for a chain of 3 levels"),
    ("single-negative-at", valid(publications={"kind": "single", "at": -1.0}), r"publications: at must be >= 0, got -1\.0"),
    ("single-unknown-key", valid(publications={"kind": "single", "count": 2}), r"publications: unknown key\(s\) 'count'"),
    ("burst-negative-spacing", valid(publications={"kind": "burst", "count": 2, "spacing": -1.0}), r"publications: spacing must be >= 0, got -1\.0"),
    ("burst-fractional-count", valid(publications={"kind": "burst", "count": 2.5}), r"publications: count must be an integer, got 2\.5"),
    ("poisson-topics-and-levels", valid(publications=poisson(topics=[".t1"], levels=[1])), r"publications: give 'topics' or 'levels', not both"),
    ("poisson-empty-topics", valid(publications=poisson(topics=[])), r"publications: 'topics' must be a non-empty list of names"),
    ("poisson-topics-a-string", valid(publications=poisson(topics=".t1")), r"publications: 'topics' must be a non-empty list of names"),
    ("poisson-empty-levels", valid(publications=poisson(levels=[])), r"publications: 'levels' must be a non-empty list of integers"),
    ("poisson-level-out-of-range", valid(publications=poisson(levels=[1, 3])), r"publications: level 3 out of range"),
    ("poisson-weights-length", valid(publications=poisson(levels=[1, 2], weights=[1.0])), r"publications: 'weights' must list one weight per target"),
    ("poisson-negative-weight", valid(publications=poisson(levels=[1, 2], weights=[1.0, -1.0])), r"publications: weights must be finite numbers >= 0, got -1\.0"),
    ("poisson-nan-weight", valid(publications=poisson(levels=[1, 2], weights=[1.0, float("nan")])), r"publications: weights must be finite numbers >= 0, got nan"),
    ("poisson-boolean-weight", valid(publications=poisson(levels=[1, 2], weights=[True, 1.0])), r"publications: weights must be finite numbers >= 0, got True"),
    ("poisson-zero-weights", valid(publications=poisson(levels=[1, 2], weights=[0.0, 0])), r"publications: weights must not all be zero"),
    ("poisson-zero-horizon", valid(publications=poisson(horizon=0.0)), r"publications: horizon must be > 0, got 0\.0"),
    ("poisson-missing-rate", valid(publications={"kind": "poisson", "horizon": 5.0}), r"publications: missing required key 'rate'"),
    ("mixed-empty-parts", valid(publications={"kind": "mixed", "parts": []}), r"publications: 'parts' must be a non-empty list of schedules"),
    ("mixed-part-not-a-mapping", valid(publications={"kind": "mixed", "parts": ["single"]}), r"publications\.parts\[0\] must be a mapping, got str"),
    ("mixed-second-part-bad", valid(publications={"kind": "mixed", "parts": [{"kind": "single"}, {"kind": "burst"}]}), r"publications\.parts\[1\]: missing required key 'count'"),
    # -- failures
    ("failures-not-a-mapping", valid(failures="none"), r"failures must be a mapping, got str"),
    ("none-with-options", valid(failures={"kind": "none", "alive_fraction": 1.0}), r"failures: unknown key\(s\) 'alive_fraction'"),
    ("stillborn-missing-fraction", valid(failures={"kind": "stillborn"}), r"failures: missing required key 'alive_fraction'"),
    ("stillborn-negative-fraction", valid(failures={"kind": "stillborn", "alive_fraction": -0.5}), r"failures: alive_fraction must be >= 0"),
    ("partition-missing-islands", valid(failures={"kind": "partition"}), r"failures: missing required key 'islands'"),
    ("partition-islands-a-word", valid(failures={"kind": "partition", "islands": "random"}), r"failures: 'islands' must be an integer >= 2 .*got 'random'"),
    ("partition-islands-boolean", valid(failures={"kind": "partition", "islands": True}), r"failures: 'islands' must be an integer >= 2 .*got True"),
    ("partition-negative-heal", valid(failures={"kind": "partition", "islands": 2, "heals_at": -1.0}), r"failures: heals_at must be >= 0"),
    ("dynamic-failures-bad-mode", valid(failures={"kind": "dynamic", "alive_fraction": 0.8, "mode": "per_event"}), r"failures: dynamic mode must be 'per_attempt' or 'per_pair', got 'per_event'"),
    ("dynamic-failures-unknown-key", valid(failures={"kind": "dynamic", "alive_fraction": 0.8, "horizon": 3.0}), r"failures: unknown key\(s\) 'horizon'"),
    ("churn-crash-above-one", valid(failures={"kind": "churn", "crash_probability": 1.5, "horizon": 5.0}), r"failures: crash_probability must be <= 1"),
    ("churn-recover-negative", valid(failures={"kind": "churn", "crash_probability": 0.5, "recover_probability": -0.1, "horizon": 5.0}), r"failures: recover_probability must be >= 0"),
    ("churn-zero-horizon", valid(failures={"kind": "churn", "crash_probability": 0.5, "horizon": 0}), r"failures: horizon must be > 0, got 0"),
    # -- latency
    ("latency-not-a-mapping", valid(latency=0.1), r"latency must be a mapping, got float"),
    ("latency-unknown-kind", valid(latency={"kind": "pareto"}), r"latency: 'kind' must be one of constant, uniform, exponential, got 'pareto'"),
    ("constant-negative-delay", valid(latency={"kind": "constant", "delay": -0.1}), r"latency: delay must be >= 0"),
    ("constant-with-mean", valid(latency={"kind": "constant", "mean": 0.1}), r"latency: unknown key\(s\) 'mean'"),
    ("uniform-missing-high", valid(latency={"kind": "uniform", "low": 0.1}), r"latency: missing required key 'high'"),
    ("exponential-zero-mean", valid(latency={"kind": "exponential", "mean": 0.0}), r"latency: mean must be > 0"),
    ("latency-overrides-not-a-mapping", valid(latency={"kind": "constant", "overrides": ["intra"]}), r"latency\.overrides must be a mapping, got list"),
    # -- faults
    ("faults-not-a-mapping", valid(faults=["loss"]), r"faults must be a mapping, got list"),
    ("loss-unknown-kind", valid(faults={"loss": {"kind": "burst"}}), r"faults\.loss: 'kind' must be one of none, bernoulli, gilbert_elliott, got 'burst'"),
    ("loss-none-with-p", valid(faults={"loss": {"kind": "none", "p": 0.1}}), r"faults\.loss: unknown key\(s\) 'p'"),
    ("bernoulli-missing-p", valid(faults={"loss": {"kind": "bernoulli"}}), r"faults\.loss: missing required key 'p'"),
    ("gilbert-elliott-frozen-chain", valid(faults={"loss": {"kind": "gilbert_elliott", "p_good_bad": 0.0, "p_bad_good": 0.0}}), r"faults\.loss: need p_good_bad \+ p_bad_good > 0"),
    ("gilbert-elliott-loss-above-one", valid(faults={"loss": {"kind": "gilbert_elliott", "p_good_bad": 0.1, "p_bad_good": 0.5, "loss_bad": 2.0}}), r"faults\.loss: loss_bad must be <= 1"),
    ("duplicate-not-a-mapping", valid(faults={"duplicate": 0.1}), r"faults\.duplicate must be a mapping, got float"),
    ("duplicate-unknown-key", valid(faults={"duplicate": {"p": 0.1, "factor": 2.0}}), r"faults\.duplicate: unknown key\(s\) 'factor'"),
    ("duplicate-fractional-copies", valid(faults={"duplicate": {"p": 0.1, "max_copies": 2.5}}), r"faults\.duplicate: max_copies must be an integer, got 2\.5"),
    ("spike-factor-below-one", valid(faults={"delay_spike": {"p": 0.1, "factor": 0.5}}), r"faults\.delay_spike: factor must be >= 1\.0"),
    ("spike-negative-extra", valid(faults={"delay_spike": {"p": 0.1, "extra": -1.0}}), r"faults\.delay_spike: extra must be >= 0\.0"),
    ("spike-missing-p", valid(faults={"delay_spike": {"factor": 2.0}}), r"faults\.delay_spike: missing required key 'p'"),
    ("faults-overrides-nested", valid(faults={"overrides": {"intra": {"overrides": {}}}}), r"faults\.overrides\['intra'\]: unknown key\(s\) 'overrides'"),
    # -- params
    ("params-not-a-mapping", valid(params=[3, 5]), r"params must be a mapping, got list"),
    ("params-fractional-z", valid(params={"z": 2.5}), r"params: z must be an integer, got 2\.5"),
    ("params-non-numeric", valid(params={"c": "five"}), r"params: c must be a number, got 'five'"),
    ("params-infinite", valid(params={"b": float("inf")}), r"params: b must be finite"),
    ("params-overrides-not-a-mapping", valid(params={"overrides": [".t1"]}), r"params\.overrides must be a mapping, got list"),
    ("params-override-not-a-mapping", valid(params={"overrides": {".t1": 6}}), r"params\.overrides\['\.t1'\] must be a mapping, got int"),
    ("params-override-unknown-key", valid(params={"overrides": {".t1": {"beta": 2}}}), r"params\.overrides\['\.t1'\]: unknown key\(s\) 'beta'"),
    ("params-override-domain", valid(params={"a": 1, "z": 3, "overrides": {".t1": {"a": 5}}}), r"params\.overrides\['\.t1'\]: .*a <= z"),
    ("params-override-bad-topic", valid(params={"overrides": {".t1..t2": {"c": 2}}}), r"params\.overrides: invalid topic name '\.t1\.\.t2'"),
    # -- dynamic mode
    ("dynamic-not-a-mapping", dynamic(dynamic=[15.0]), r"dynamic must be a mapping, got list"),
    ("dynamic-negative-warmup", dynamic(dynamic={"warmup": -1.0}), r"dynamic: warmup must be >= 0"),
    ("dynamic-zero-maintain-interval", dynamic(dynamic={"maintain_interval": 0.0}), r"dynamic: maintain_interval must be > 0"),
    ("dynamic-zero-overlay-degree", dynamic(dynamic={"overlay_degree": 0}), r"dynamic: overlay_degree must be >= 1"),
    ("dynamic-fractional-ttl", dynamic(dynamic={"bootstrap_ttl": 2.5}), r"dynamic: bootstrap_ttl must be an integer, got 2\.5"),
    ("bootstrap-not-a-mapping", dynamic(dynamic={"bootstrap": "immediate"}), r"dynamic\.bootstrap must be a mapping, got str"),
    ("immediate-with-start", dynamic(dynamic=bootstrap(kind="immediate", start=1.0)), r"dynamic\.bootstrap: unknown key\(s\) 'start'"),
    ("staggered-negative-start", dynamic(dynamic=bootstrap(kind="staggered", spacing=1.0, start=-2.0)), r"dynamic\.bootstrap: start must be >= 0"),
    ("waves-missing-size", dynamic(dynamic=bootstrap(kind="waves", interval=1.0)), r"dynamic\.bootstrap: missing required key 'wave_size'"),
    ("waves-with-spacing", dynamic(dynamic=bootstrap(kind="waves", wave_size=2, interval=1.0, spacing=1.0)), r"dynamic\.bootstrap: unknown key\(s\) 'spacing'"),
    ("campaign-not-a-mapping", dynamic(campaign=[]), r"campaign must be a mapping, got list"),
    ("campaign-unknown-key", dynamic(campaign={"actions": [{"kind": "recover_all", "at": 1.0}], "repeat": 2}), r"campaign: unknown key\(s\) 'repeat'"),
    ("campaign-actions-a-string", dynamic(campaign={"actions": "recover_all"}), r"campaign: 'actions' must be a non-empty list of action objects"),
    ("campaign-action-not-a-mapping", dynamic(campaign=campaign("recover_all")), r"campaign\.actions\[0\] must be a mapping, got str"),
    ("campaign-missing-at", dynamic(campaign=campaign({"kind": "recover_all"})), r"campaign\.actions\[0\]: missing required key 'at'"),
    ("campaign-negative-at", dynamic(campaign=campaign({"kind": "recover_all", "at": -1.0})), r"campaign\.actions\[0\]: at must be >= 0"),
    ("recover-all-with-fraction", dynamic(campaign=campaign({"kind": "recover_all", "at": 1.0, "fraction": 0.5})), r"campaign\.actions\[0\]: unknown key\(s\) 'fraction'"),
    ("recover-negative-fraction", dynamic(campaign=campaign({"kind": "recover", "at": 1.0, "fraction": -0.5})), r"campaign\.actions\[0\]: fraction must be >= 0"),
    ("kill-fraction-missing-fraction", dynamic(campaign=campaign({"kind": "kill_fraction", "at": 1.0})), r"campaign\.actions\[0\]: missing required key 'fraction'"),
    ("kill-super-links-topic-and-level", dynamic(campaign=campaign({"kind": "recover_all", "at": 1.0}, {"kind": "kill_super_links", "at": 2.0, "topic": ".t1", "level": 1})), r"campaign\.actions\[1\]: give 'topic' or 'level', not both"),
    ("kill-super-links-level-out-of-range", dynamic(campaign=campaign({"kind": "kill_super_links", "at": 2.0, "level": 5})), r"campaign\.actions\[0\]: level 5 out of range"),
]


class TestCompileRefuses:
    @pytest.mark.parametrize(
        "spec, message",
        [pytest.param(spec, message, id=name) for name, spec, message in SPEC_ROWS],
    )
    def test_refusal_names_section_key_and_value(self, spec, message):
        with pytest.raises(ConfigError, match=message):
            compile_spec(spec)

    def test_every_row_is_one_change_from_a_compiling_spec(self):
        # the bases compile: each row's refusal is its own change's
        compile_spec(VALID)
        compile_spec(DYNAMIC)
        compile_spec(valid(topics=NAMES, subscriptions={"kind": "explicit", "counts": {".a.b": 4}}, publications={"kind": "single"}))
        assert len({name for name, _, _ in SPEC_ROWS}) == len(SPEC_ROWS)

    @pytest.mark.parametrize("spec", [[], "spec", None, 3])
    def test_a_spec_must_be_a_mapping(self, spec):
        with pytest.raises(ConfigError, match=r"^spec must be a mapping, got "):
            compile_spec(spec)

    def test_missing_subscriptions(self):
        spec = valid()
        del spec["subscriptions"]
        with pytest.raises(ConfigError, match="missing required section 'subscriptions'"):
            compile_spec(spec)


class TestLoadSpec:
    def test_reads_a_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(VALID))
        assert load_spec(str(path)) == VALID

    def test_missing_json_file(self, tmp_path):
        ref = str(tmp_path / "absent.json")
        with pytest.raises(ConfigError, match=r"spec file .*absent\.json' not found"):
            load_spec(ref)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": ')
        with pytest.raises(ConfigError, match=r"broken\.json' is not valid JSON"):
            load_spec(str(path))

    @pytest.mark.parametrize("payload", [[1, 2], "spec", 3])
    def test_json_must_hold_an_object(self, tmp_path, payload):
        path = tmp_path / "list.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=r"list\.json' must contain a JSON object"):
            load_spec(str(path))


class TestRunsAndSweeps:
    @pytest.mark.parametrize("runs", [0, -1])
    def test_sweep_needs_one_run(self, runs):
        with pytest.raises(ConfigError, match=f"runs must be >= 1, got {runs}"):
            sweep_scenario(VALID, "p_success", [0.5], runs=runs)

    def test_sweep_needs_values(self):
        with pytest.raises(ConfigError, match="sweep values must not be empty"):
            sweep_scenario(VALID, "p_success", [], runs=1)

    def test_a_sweep_point_is_validated_as_a_spec(self):
        with pytest.raises(ConfigError, match=r"spec: p_success must be <= 1"):
            sweep_scenario(VALID, "p_success", [0.5, 1.5], runs=1)

    @pytest.mark.parametrize("path", ["", ".", "a..b", "params."])
    def test_spec_with_rejects_an_empty_part(self, path):
        with pytest.raises(ConfigError, match="invalid spec path"):
            spec_with(VALID, path, 1)

    def test_a_built_scenario_runs_once(self):
        from repro.workloads.spec import compile_spec_cached

        built = compile_spec_cached(VALID).build(0)
        try:
            built.execute()
            with pytest.raises(ConfigError, match="scenario already executed"):
                built.execute()
        finally:
            built.system.close()

    def test_run_spec_is_seed_deterministic(self):
        assert run_spec(VALID, seed=3) == run_spec(VALID, seed=3)


class TestHostileNumbers:
    """Finite values whose arithmetic overflows mid-build, or that put a
    publication before any member of its topic can have joined, are
    refused at compile time, naming the key: exit 2 and one line, not a
    traceback."""

    @staticmethod
    def run_preset(capsys, preset, assignment):
        code = main(["scenario", "run", preset, "--set", assignment])
        return code, capsys.readouterr().err

    def test_a_table_capacity_that_overflows(self, capsys):
        code, err = self.run_preset(capsys, "paper-vii", "params.b=1e308")
        assert code == 2
        assert err.startswith("error: params: b = 1e+308") and "overflow" in err

    def test_a_zipf_exponent_whose_weights_overflow(self, capsys):
        code, err = self.run_preset(
            capsys, "zipf-feed", "subscriptions.exponent=1000000000"
        )
        assert code == 2
        assert err.startswith("error: subscriptions: exponent 1000000000")

    def test_a_burst_spacing_that_overflows_the_schedule(self, capsys):
        code, err = self.run_preset(
            capsys, "loss-sweep", "publications.spacing=1e308"
        )
        assert code == 2
        assert err.startswith("error: publications: spacing 1e+308")

    def test_a_bootstrap_spacing_that_overflows_the_last_join(self, capsys):
        code, err = self.run_preset(
            capsys, "churn-recover", "dynamic.bootstrap.spacing=1e308"
        )
        assert code == 2
        assert err.startswith("error: dynamic.bootstrap: spacing 1e+308")

    def test_a_bootstrap_wave_interval_that_overflows_the_last_join(self, capsys):
        code, err = self.run_preset(
            capsys, "bootstrap-wave", "dynamic.bootstrap.interval=1e308"
        )
        assert code == 2
        assert err.startswith("error: dynamic.bootstrap: interval 1e+308")

    def test_a_bootstrap_wave_interval_that_joins_the_publishers_too_late(
        self, capsys
    ):
        # the .t1.t2 members join from t = 1e9 on, the event is due at 30
        code, err = self.run_preset(
            capsys, "bootstrap-wave", "dynamic.bootstrap.interval=1e9"
        )
        assert code == 2
        assert err.startswith(
            "error: publications: a .t1.t2 event is due as early as t = 30, "
            "before the first .t1.t2 member joins at t = 1e+09 "
            "(dynamic.bootstrap)"
        )
        assert err.count("\n") == 1

    def test_a_poisson_target_that_joins_after_the_warmup(self):
        waves = {
            "warmup": 15.0,
            "settle": 10.0,
            "bootstrap": {"kind": "waves", "wave_size": 6, "interval": 20.0},
        }
        poisson = {
            "kind": "poisson",
            "rate": 1.0,
            "horizon": 5.0,
            "topics": [".t1", ".t1.t2"],
        }
        # .t1 joins at 0, .t1.t2 (pids 6..13) at 20: an arrival may fall first
        with pytest.raises(
            ConfigError,
            match=r"^publications: a \.t1\.t2 event is due as early as t = 15,",
        ):
            compile_spec(dynamic(publications=poisson, dynamic=waves))
        # a target of weight 0 is never published
        compile_spec(
            dynamic(publications=dict(poisson, weights=[1.0, 0.0]), dynamic=waves)
        )

    def test_a_seeded_population_is_checked_when_the_build_resolves_it(self):
        spec = dynamic(
            subscriptions={"kind": "uniform", "n": 14},
            dynamic={
                "warmup": 15.0,
                "settle": 10.0,
                "bootstrap": {"kind": "waves", "wave_size": 4, "interval": 1e9},
            },
        )
        compiled = compile_spec(spec)  # the targets wait for the population
        with pytest.raises(ConfigError, match=r"^publications: a \.t1\.t2 event"):
            compiled.build(0)
