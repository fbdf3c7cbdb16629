"""Golden same-seed regression tests for the static-mode simulator.

The constants below were captured from the repository *before* the batched
multicast transport landed (one ``Network.send``, one closure and one heap
entry per destination). The batched fast path must reproduce the paper
scenario's trajectories bit-for-bit: identical per-kind send/delivery
counters, identical drop reasons, identical delivery fractions per group.
Any change to RNG draw order anywhere in the transport or dissemination
stack shows up here immediately.

``test_static_construction_golden_large`` extends the net to the
membership *construction* itself at a larger scale (S=500 plus a
supergroup): its digest covers every table's exact content in exact
insertion order, so a construction-order regression in the O(S·k) build
context (index mapping, working-list advance, bulk install) is caught even
if the aggregate dissemination counters happen to survive it. Captured
from the pre-build-context implementation.
"""

import hashlib

import pytest

from repro.core.system import DaMulticastSystem
from repro.workloads import PaperScenario
from repro.workloads.presets import load_preset
from repro.workloads.scenarios import delivered_fractions
from repro.workloads.spec import compile_spec

#: (seed, alive_fraction) -> observable outcome of one §VII publication.
#: Captured at the pre-batching commit, then re-recorded once — on that
#: lineage with nothing but the publisher/stillborn stream label changed
#: from "scenario" to "spec/scenario" — when CompiledSpec.build became the
#: one build path under PaperScenario.
GOLDEN = {
    (7, 1.0): {
        "sent": {"event": 8754},
        "delivered": {"event": 7392},
        "dropped": {"channel_loss": 1362},
        "fractions": {".": 1.0, ".t1": 1.0, ".t1.t2": 1.0},
    },
    (11, 0.7): {
        "sent": {"event": 6078},
        "delivered": {"event": 3628},
        "dropped": {"channel_loss": 863, "dead_target": 1587},
        "fractions": {".": 0.8, ".t1": 0.69, ".t1.t2": 0.694},
    },
    (42, 0.85): {
        "sent": {"event": 7396},
        "delivered": {"event": 5363},
        "dropped": {"channel_loss": 1104, "dead_target": 929},
        "fractions": {".": 0.8, ".t1": 0.93, ".t1.t2": 0.837},
    },
}


@pytest.mark.parametrize("seed,alive_fraction", sorted(GOLDEN))
def test_static_mode_outcomes_unchanged_by_batched_transport(
    seed, alive_fraction
):
    built = PaperScenario().build(seed=seed, alive_fraction=alive_fraction)
    built.execute()
    system = built.system
    want = GOLDEN[(seed, alive_fraction)]
    assert dict(system.stats.sent_by_kind) == want["sent"]
    assert dict(system.stats.delivered_by_kind) == want["delivered"]
    assert dict(system.stats.dropped_by_reason) == want["dropped"]
    fractions = {
        topic.name: round(fraction, 12)
        for topic, fraction in delivered_fractions(built).items()
    }
    assert fractions == want["fractions"]


#: Captured at the pre-build-context commit: SHA-256 over every process's
#: topic-table pids, supertopic-table pids and sTable target, in creation
#: and insertion order, for seed=123 / S_t1=100 / S_t1.t2=500.
GOLDEN_LARGE_TABLE_DIGEST = (
    "bdff3d531e067390fa3662fe0a6acd3b4ba5d74d54f9da36d9faedab0a644499"
)
GOLDEN_LARGE_PUBLISH = {
    "sent": {"event": 7010},
    "delivered": {"event": 6323},
    "dropped": {"channel_loss": 687},
}


def construction_digest(system) -> str:
    """SHA-256 over every process's tables, creation and insertion order."""
    digest = hashlib.sha256()
    for process in system.processes:
        digest.update(b"T")
        digest.update(",".join(map(str, process.topic_table().pids)).encode())
        digest.update(b"S")
        digest.update(",".join(map(str, process.super_table.pids)).encode())
        digest.update(str(process.super_table.target_topic).encode())
    return digest.hexdigest()


def test_static_construction_golden_large():
    """S=500 membership construction is bit-identical, table by table."""
    system = DaMulticastSystem(seed=123, p_success=0.9, mode="static")
    system.add_group(".t1", 100)
    system.add_group(".t1.t2", 500)
    system.finalize_static_membership()
    assert construction_digest(system) == GOLDEN_LARGE_TABLE_DIGEST

    event = system.publish(".t1.t2")
    system.run_until_idle()
    assert dict(system.stats.sent_by_kind) == GOLDEN_LARGE_PUBLISH["sent"]
    assert (
        dict(system.stats.delivered_by_kind)
        == GOLDEN_LARGE_PUBLISH["delivered"]
    )
    assert (
        dict(system.stats.dropped_by_reason) == GOLDEN_LARGE_PUBLISH["dropped"]
    )
    assert round(system.delivered_fraction(event, ".t1.t2"), 12) == 1.0
    assert round(system.delivered_fraction(event, ".t1"), 12) == 1.0


def test_paper_scenario_states_the_paper_vii_preset():
    """The two statements of §VII cannot drift: same spec, same build."""
    preset = load_preset("paper-vii")
    stated = {
        key: value
        for key, value in preset.items()
        if key not in ("name", "description")
    }
    assert PaperScenario().spec(alive_fraction=0.7) == stated
    for seed in (3, 19):
        outcomes = []
        for built in (
            PaperScenario().build(seed=seed, alive_fraction=0.7),
            compile_spec(preset).build(seed),
        ):
            digest = construction_digest(built.system)
            built.execute()
            outcomes.append((digest, built.system.stats.as_dict()))
            built.system.close()
        assert outcomes[0] == outcomes[1]

