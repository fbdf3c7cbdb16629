"""§VI-E.3 — reliability of all four algorithms, measured and closed-form.

Paper: "In comparison with other algorithms, the probability that all
processes receive an event is smaller with our algorithm, in the general
case, especially for the processes interested in the root topic. ...
However, it is possible to tune this."

Measured P(all alive members of a group receive) is compared against the
*effective* Erdős–Rényi prediction ``e^{-e^{-c_eff}}``, where ``c_eff``
accounts for the base-10 fan-out and channel loss (see
``analysis.reliability.effective_fanout_constant``) — the raw ``e^{-e^{-c}}``
limit assumes lossless natural-log gossip.
"""

from repro.analysis import (
    broadcast_reliability,
    damulticast_reliability,
    intergroup_propagation_probability,
    multicast_reliability,
)
from repro.analysis.reliability import effective_gossip_reliability
from repro.experiments.runner import run_sweep
from repro.metrics.report import Table
from repro.workloads import PaperScenario

SCENARIO = PaperScenario(p_succ=0.8)  # lossier hops make the gap visible
RUNS = 20


def measure_all_received(alive: float, seed: int):
    built = SCENARIO.build(seed=seed, alive_fraction=alive)
    built.execute()
    (event,) = built.published
    return {
        f"all_T{level}": float(built.system.all_received(event, topic))
        for level, topic in enumerate(built.compiled.ordered_topics)
    }


def analytic_all_received(level_sizes: list[int]) -> float:
    """Effective-c prediction of P(all of the *top* group receive).

    Eq. (1) multiplies one ``e^{-e^{-c}}`` per traversed level; that is
    pessimistic for upper groups, because the event's *arrival* upstairs
    needs only enough downstream coverage to elect links (captured by
    ``pit``), not full downstream delivery. The top group's own complete
    coverage is the only all-members requirement.
    """
    top = level_sizes[-1]
    result = effective_gossip_reliability(
        top,
        c=SCENARIO.c,
        p_succ=SCENARIO.p_succ,
        log_base=SCENARIO.fanout_log_base,
    )
    for size in level_sizes[:-1]:
        result *= intergroup_propagation_probability(
            size, g=SCENARIO.g, a=SCENARIO.a, z=SCENARIO.z,
            p_succ=SCENARIO.p_succ,
        )
    return result


def test_reliability_comparison(benchmark, emit, sweep_executor):
    sweep = benchmark.pedantic(
        lambda: run_sweep(
            measure_all_received,
            [1.0],
            runs=RUNS,
            label="sec6-rel",
            executor=sweep_executor,
        ),
        rounds=1,
        iterations=1,
    )

    # sizes bottom-up: publication group first.
    bottom_up = list(reversed(SCENARIO.sizes))
    measured = {
        "T2": sweep.means["all_T2"][0],
        "T1": sweep.means["all_T1"][0],
        "T0": sweep.means["all_T0"][0],
    }
    analytic = {
        "T2": analytic_all_received(bottom_up[:1]),
        "T1": analytic_all_received(bottom_up[:2]),
        "T0": analytic_all_received(bottom_up[:3]),
    }

    table = Table(
        "§VI-E.3 reliability: measured P(all of group receive) vs effective "
        f"closed forms ({RUNS} runs, p_succ={SCENARIO.p_succ}, log10 fanout)",
        ["group", "measured", "analytic_effective"],
    )
    for group in ("T2", "T1", "T0"):
        table.add_row(group, measured[group], analytic[group])
    emit(table, "sec6_reliability_comparison")

    closed = Table(
        "§VI-E.3 closed forms (natural-log idealization, p_succ on hops)",
        ["algorithm", "reliability"],
    )
    ours_root = damulticast_reliability(
        bottom_up, c=SCENARIO.c, g=SCENARIO.g, a=SCENARIO.a, z=SCENARIO.z,
        p_succ=SCENARIO.p_succ,
    )
    closed.add_row("daMulticast (root)", ours_root)
    closed.add_row("broadcast (a)", broadcast_reliability(SCENARIO.c))
    closed.add_row("multicast (b)", multicast_reliability(3, SCENARIO.c))
    emit(closed, "sec6_reliability_closed_forms")

    # Measured tracks the effective prediction per group (Monte-Carlo
    # noise with 20 Bernoulli runs: generous tolerance).
    for group in ("T2", "T1", "T0"):
        assert abs(measured[group] - analytic[group]) <= 0.3, (
            group, measured[group], analytic[group],
        )

    # The paper's §VI-E.3 ordering on the closed forms: daMulticast's
    # root-group reliability does not exceed the interest-blind baselines'.
    assert ours_root <= broadcast_reliability(SCENARIO.c)
    assert ours_root <= multicast_reliability(3, SCENARIO.c)
