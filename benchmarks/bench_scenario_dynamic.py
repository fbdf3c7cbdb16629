"""Dynamic-scenario throughput: full-protocol engine events per second.

The static-mode benches time the §VII publish path; this one times the
*dynamic* path the PR-5 scenario specs opened — staggered bootstrap over
the overlay (FIND_SUPER_CONTACT floods), KEEP_TABLE_UPDATED maintenance,
a failure campaign and non-constant latency, horizon-bound. The
``events`` extra_info is the engine's processed-callback count, from
which an events/sec figure for the dynamic path follows.
"""

from repro.workloads.presets import load_preset
from repro.workloads.spec import compile_spec


def test_dynamic_scenario_event_throughput(benchmark):
    spec = load_preset("churn-recover")
    compiled = compile_spec(spec)

    def one_dynamic_run():
        built = compiled.build(seed=7)
        metrics = built.execute()
        assert metrics["events"] == 3.0
        assert metrics["mean_delivery"] > 0.0
        return built.system.engine.processed

    processed = benchmark(one_dynamic_run)
    benchmark.extra_info["events"] = processed
    benchmark.extra_info["scenario"] = "churn-recover (mode=dynamic)"
    # A real full-protocol run: joins, floods, pings, campaign, events.
    assert processed > 2_000


def test_dynamic_super_link_attack_throughput(benchmark):
    spec = load_preset("super-link-attack")
    compiled = compile_spec(spec)

    def one_attack_run():
        built = compiled.build(seed=3)
        built.execute()
        assert [kind for _, kind, _ in built.campaign.log.actions] == [
            "crash_super_links",
            "recover",
        ]
        return built.system.engine.processed

    processed = benchmark(one_attack_run)
    benchmark.extra_info["events"] = processed
    benchmark.extra_info["scenario"] = "super-link-attack (mode=dynamic)"
    assert processed > 2_000
