"""An exact-count budget for the columnar host's flood (ROADMAP 1(d), tier-1).

The third of the frame budgets, beside ``test_channel_frame_budget.py`` (a
transmission on the general channel) and ``test_flood_frame_budget.py`` (a
reception on the object host). One clean-channel columnar flood over groups
of 50 and 500 runs under ``sys.setprofile``; every ``call`` event of a frame
whose code lives under ``src/repro/`` counts, from the engine's loop down to
the sampler (comprehension frames are left out, as CPython 3.12 inlines
them, so the counts are the same on 3.11 and 3.12). Two numbers, both exact:

* **frames per forwarder** — all of them, delivery tracking included,
  divided by the 549 processes that received the event first-hand and
  forwarded it (every member but the publisher): 12.30 (6 752 frames;
  27.39 when every fan-out was its own transport entry, then 18.45 until
  the parasite check ran once per event and group instead of once per
  batch — three frames a batch — and link election became one
  ``ColumnarGroupTables`` method both hosts call, one frame a forwarder,
  then 16.40 until a ``Topic`` became one object per path, hashed in C
  by the per-group send counters, then 14.30 — 7 852 frames — until a
  fan-out issued inside a wave was counted when the wave's delivery
  ends, one ``NetworkStats.record_fanouts`` pass per wave instead of
  ``record_sent_many`` and ``record_dropped_many`` per fan-out).
  The budget leaves less than one frame per forwarder, so it fails the day
  someone re-adds one — the last test plants one under ``gossip_targets``;
* **transport entries per flood** — the clean channel sends every fan-out
  issued while one entry is delivered as one entry, so a flood costs one
  entry per hop, not one per fan-out: 7 entries for this flood (it was
  557), whose last first-hand reception is 6 hops from the publisher — the
  seventh entry carries only duplicates. The check is entries <= hops + 1.
  The flood measured is one whose publisher hands the event to no
  supergroup member (its ``p_a`` draws all fail): a publisher that does
  starts a second run of waves beside the first, one more entry per hop of
  the supergroup's own flood.
"""

import pathlib
import sys

import pytest

import repro
from repro.core.columnar import ColumnarStaticSystem
from repro.membership.columnar import ColumnarGroupTables
from repro.net.network import Network

PACKAGE = str(pathlib.Path(repro.__file__).resolve().parent)
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>"}
SEED = 1

#: measured 12.30 (6 752 frames for 549 forwarders — 6 754 while the
#: once-per-event-and-group parasite check took three frames, not one;
#: 14.30 and 7 852 before in-wave fan-outs were counted once per wave);
#: 13.25 has no room for one more frame per forwarder (13.30 would)
BUDGET_FRAMES_PER_FORWARDER = 13.25


def planted(function):
    """``function`` behind one more frame whose code lives under
    ``src/repro/`` as far as the profiler can tell."""
    namespace = {"function": function}
    source = "def extra(*args, **kwargs):\n    return function(*args, **kwargs)\n"
    exec(compile(source, PACKAGE + "/planted.py", "exec"), namespace)
    return namespace["extra"]


def measure_flood() -> dict:
    """Frames, forwarders, transport entries and hop depth of one
    ``(50, 500)`` columnar flood."""
    system = ColumnarStaticSystem(seed=SEED, tracker="full")
    system.add_group(".t1", 50)
    system.add_group(".t1.t2", 500)
    system.finalize_static_membership()
    deliveries = {
        Network._deliver_wave.__code__,
        Network._deliver_batch.__code__,
        Network._deliver.__code__,
    }
    counts = {"frames": 0, "entries": 0}

    def profiler(frame, event, arg):
        code = frame.f_code
        if (
            event == "call"
            and code.co_filename.startswith(PACKAGE)
            and code.co_name not in COMPREHENSIONS
        ):
            counts["frames"] += 1
            if code in deliveries:
                counts["entries"] += 1

    # one flood to warm up, the second is measured
    system.publish(".t1.t2")
    system.run_until_idle()
    event = system.publish(".t1.t2")
    sys.setprofile(profiler)
    try:
        system.run_until_idle()
    finally:
        sys.setprofile(None)
    # the flood is the one the budget was measured on: every member of
    # both groups delivered it
    assert set(system.tracker.receivers(event.event_id)) == set(range(550))
    hops = system.tracker.delivery_hops(event.event_id)
    counts["forwarders"] = len(hops) - 1  # all but the publisher
    assert counts["forwarders"] == 50 + 500 - 1
    counts["depth"] = max(hops.values())
    return counts


def assert_within_budget(counts: dict) -> None:
    per_forwarder = counts["frames"] / counts["forwarders"]
    assert per_forwarder <= BUDGET_FRAMES_PER_FORWARDER, (
        f"{counts['frames']} frames under src/repro/ for "
        f"{counts['forwarders']} forwarders = {per_forwarder:.2f} each, "
        f"budget {BUDGET_FRAMES_PER_FORWARDER}"
    )


def test_flood_frames_per_forwarder_within_budget():
    assert_within_budget(measure_flood())


def test_flood_pays_one_transport_entry_per_hop():
    counts = measure_flood()
    assert counts["entries"] <= counts["depth"] + 1, counts


def test_budget_fails_on_a_frame_planted_under_gossip_targets(monkeypatch):
    monkeypatch.setattr(
        ColumnarGroupTables,
        "sample_row",
        planted(ColumnarGroupTables.sample_row),
    )
    with pytest.raises(AssertionError, match="budget"):
        assert_within_budget(measure_flood())
