"""Simulated numbers against the closed forms of ``repro.analysis``.

The three comparisons the deleted ``bench_sec6_message_complexity``,
``bench_sec6_reliability_comparison`` and ``bench_repair_vs_frozen``
files held, at those files' own parameters, seeds and tolerances. They
are the seed rows of the paper-fidelity table (ROADMAP item 4), whose
binomial bands replace the hand-set tolerances here.
"""

import math

from repro.analysis import (
    broadcast_reliability,
    damulticast_messages,
    damulticast_reliability,
    effective_gossip_reliability,
    intergroup_propagation_probability,
    multicast_reliability,
)
from repro.experiments.comparisons import measured_comparison
from repro.experiments.runner import run_sweep
from repro.experiments.repair import repair_comparison
from repro.workloads import PaperScenario

PAPER = PaperScenario()  # §VII: sizes 10/100/1000, log10 fan-out, p_succ 0.85


def test_event_messages_track_the_closed_form():
    """§VI-E.1: one §VII publication costs what ``damulticast_messages``
    says, and no more than the broadcast baseline."""
    rows = {
        row["algorithm"]: row["event_messages"]
        for row in measured_comparison(scenario=PAPER, runs=3).as_dicts()
    }
    analytic = damulticast_messages(
        list(reversed(PAPER.sizes)),  # the closed forms read bottom-up
        c=PAPER.c, g=PAPER.g, a=PAPER.a, z=PAPER.z,
        p_succ=PAPER.p_succ, log_base=10,
    )
    # loss makes some processes never forward, so measured <= analytic
    assert 0.55 * analytic <= rows["daMulticast"] <= 1.10 * analytic
    assert rows["daMulticast"] <= rows["broadcast (a)"]

    # the total is driven by S_Tmax·log(S_Tmax): growing the bottom group
    # tenfold adds exactly the dominant term's difference
    small = damulticast_messages([100, 100, 10], log_base=10)
    big = damulticast_messages([1000, 100, 10], log_base=10)
    assert math.isclose(
        big - small, 1000 * (3 + 5) - 100 * (2 + 5), rel_tol=0.01
    )


LOSSY = PaperScenario(p_succ=0.8)  # lossier hops make the gap visible


def _all_received(alive: float, seed: int) -> dict[str, float]:
    built = LOSSY.build(seed=seed, alive_fraction=alive)
    built.execute()
    (event,) = built.published
    return {
        f"T{level}": float(built.system.delivered_fraction(event, topic) == 1.0)
        for level, topic in enumerate(built.compiled.ordered_topics)
    }


def _analytic_all_received(level_sizes: list[int]) -> float:
    """P(all of the *top* group of ``level_sizes`` (bottom-up) receive).

    Eq. (1) multiplies one ``e^{-e^{-c}}`` per traversed level; that is
    pessimistic for upper groups, whose *arrival* needs only enough
    downstream coverage to elect links (``pit``), not full downstream
    delivery. The top group's own complete coverage is the only
    all-members requirement — with ``c`` corrected for the base-10 fan-out
    and channel loss (``effective_fanout_constant``).
    """
    result = effective_gossip_reliability(
        level_sizes[-1], c=LOSSY.c, p_succ=LOSSY.p_succ,
        log_base=LOSSY.fanout_log_base,
    )
    for size in level_sizes[:-1]:
        result *= intergroup_propagation_probability(
            size, g=LOSSY.g, a=LOSSY.a, z=LOSSY.z, p_succ=LOSSY.p_succ
        )
    return result


def test_all_received_tracks_the_effective_reliability():
    """§VI-E.3: P(every member of T2 / T1 / T0 receives) over 20 runs."""
    sweep = run_sweep(_all_received, [1.0], runs=20, label="sec6-rel")
    bottom_up = list(reversed(LOSSY.sizes))
    for level in (2, 1, 0):
        measured = sweep.means[f"T{level}"][0]
        analytic = _analytic_all_received(bottom_up[: 3 - level])
        # 20 Bernoulli runs: generous tolerance
        assert abs(measured - analytic) <= 0.3, (level, measured, analytic)

    # the paper's ordering on the closed forms: daMulticast's root-group
    # reliability does not exceed the interest-blind baselines'
    ours_root = damulticast_reliability(
        bottom_up, c=LOSSY.c, g=LOSSY.g, a=LOSSY.a, z=LOSSY.z,
        p_succ=LOSSY.p_succ,
    )
    assert ours_root <= broadcast_reliability(LOSSY.c)
    assert ours_root <= multicast_reliability(3, LOSSY.c)


def test_live_repair_beats_frozen_membership():
    """§VII's frozen tables are the pessimistic setting: at the same
    failure fraction the repaired system dominates — most at the root,
    where frozen inter-group links die silently. (The byte-pinned
    ``repair`` table cannot carry this: at its alive=0.6 both modes
    deliver 1.000.)"""
    table = repair_comparison(
        alive_fraction=0.4,
        runs=4,
        scenario=PaperScenario(sizes=(4, 12, 48), p_succ=0.9),
    )
    frozen, repaired = table.as_dicts()
    assert (frozen["mode"], repaired["mode"]) == ("frozen", "repaired")
    assert repaired["bottom_delivery"] >= frozen["bottom_delivery"] - 0.05
    assert repaired["root_delivery"] >= frozen["root_delivery"] + 0.15
    # and it approaches the failure-free regime in its own group
    assert repaired["bottom_delivery"] >= 0.9
