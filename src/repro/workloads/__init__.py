"""Workload generation: scenarios, subscription populations, publications.

* :mod:`~repro.workloads.scenarios` — the §VII paper scenario (t=3 chain,
  1000/100/10 subscribers, b=3 c=5 g=5 a=1 z=3, p_succ=0.85, publication
  on T2) as a typed record that states itself as a spec (it builds
  nothing of its own: ``PaperScenario.build`` is ``CompiledSpec.build``),
* :mod:`~repro.workloads.subscriptions` — subscription distributions over
  a hierarchy (per-level counts, uniform, Zipf-popularity),
* :mod:`~repro.workloads.publications` — publication schedules
  (single-shot, Poisson, bursts) for multi-event experiments,
* :mod:`~repro.workloads.spec` — declarative scenario specs (plain
  dict/JSON) composing all of the above with failure plans and protocol
  choice into runnable, sweepable simulations — the one build path
  every scenario in the tree goes through,
* :mod:`~repro.workloads.presets` — bundled, named preset specs
  (``paper-vii``, ``zipf-feed``, ``news-burst``, ``churn-heavy``,
  ``partition-heal``, ``baseline-compare``).
"""

from repro.workloads.scenarios import PaperScenario
from repro.workloads.subscriptions import (
    per_level_counts,
    uniform_subscriptions,
    zipf_subscriptions,
)
from repro.workloads.publications import (
    PoissonSchedule,
    burst_schedule,
    replay_on,
    single_shot,
)
from repro.workloads.spec import (
    CompiledSpec,
    compile_spec,
    load_spec,
    metrics_digest,
    run_scenario,
    run_spec,
    spec_with,
    sweep_scenario,
)

__all__ = [
    "PaperScenario",
    "per_level_counts",
    "uniform_subscriptions",
    "zipf_subscriptions",
    "single_shot",
    "burst_schedule",
    "replay_on",
    "PoissonSchedule",
    "CompiledSpec",
    "compile_spec",
    "load_spec",
    "metrics_digest",
    "run_scenario",
    "run_spec",
    "spec_with",
    "sweep_scenario",
]
