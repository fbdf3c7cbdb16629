"""An exact-count budget for the static flood (ROADMAP 1(d), tier-1).

The sibling of ``test_channel_frame_budget.py`` (a transmission on the
general channel), one layer up. Both static facades —
``DaMulticastSystem(mode="static")`` and ``ColumnarStaticSystem`` — flood
through one block actor per group, so one clean-channel flood over groups
of 50 and 500 runs on each under ``sys.setprofile``; every ``call`` event
of a frame whose code lives under ``src/repro/`` counts, from the engine's
loop down to the sampler (comprehension frames are left out, as CPython
3.12 inlines them, so the counts are the same on 3.11 and 3.12). Two
numbers per facade, both exact:

* **frames per forwarder** — all of them, delivery tracking included,
  divided by the 549 processes that received the event first-hand and
  forwarded it (every member but the publisher): 7.52 on the columnar
  system (4 129 frames) and 7.46 on ``DaMulticastSystem`` (4 098; its
  members draw from their own streams, so its flood is another flood).
  They read 7.53 (4 135) and 7.47 (4 103) while every engine entry still
  had an ``EventHandle`` of its own; a flood schedules few entries (one
  per hop), so a plain-list entry saves it only those frames.
  Both read 11.56 (6 345) and 11.49 (6 309) while Fig. 7 reached the
  block actor's pid columns through a flyweight peer rebound per member
  (``disseminate``, two ``link_targets`` and ``gossip_targets`` frames,
  the peer's ``multicast`` and a new inter ``Scope`` per hand-off); a
  first receipt is now one actor call, the sampler and the network's
  ``multicast``. The columnar flood read 12.30 (6 752) while a batch of
  later copies still loaded what a first receipt needs, the clock's ``now`` property
  among it, and before that 27.39 when every fan-out was its own transport
  entry, then 18.45 until the parasite check ran once per event and group
  instead of once per batch and link election became one
  ``ColumnarGroupTables`` method, then 16.40 until a ``Topic`` became one
  object per path, then 14.30 until a fan-out issued inside a wave was
  counted when the wave's delivery ends. ``DaMulticastSystem``'s flood
  read 14.03 over groups of 6 and 60 while each static process was a
  network actor of its own, entered once per reception (a duplicate
  receipt cost one frame; in the block actor's loop it costs none).
  The budget leaves less than one frame per forwarder on either facade,
  so it fails the day someone re-adds one — the last tests plant one
  under the gossip draw (``ColumnarGroupTables.sample_row``) and one in
  the block actor's entry;
* **transport entries per flood** — the clean channel sends every fan-out
  issued while one entry is delivered as one entry, so a flood costs one
  entry per hop, not one per fan-out: 7 entries for the columnar flood
  (it was 557), whose last first-hand reception is 6 hops from the
  publisher — the seventh entry carries only duplicates. The check is
  entries <= hops + 1. Both floods measured are ones whose publisher
  hands the event to no supergroup member (its ``p_a`` draws all fail): a
  publisher that does starts a second run of waves beside the first, one
  more entry per hop of the supergroup's own flood.
"""

import pathlib
import sys

import pytest

import repro
from repro.core.columnar import ColumnarStaticSystem
from repro.core.group_actor import ColumnarGroupActor
from repro.core.system import DaMulticastSystem
from repro.membership.columnar import ColumnarGroupTables
from repro.net.network import Network

PACKAGE = str(pathlib.Path(repro.__file__).resolve().parent)
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>"}
SEED = 1

#: the two facades of the one static build, each with the full tracker
FACADES = {
    "object": lambda: DaMulticastSystem(mode="static", seed=SEED),
    "columnar": lambda: ColumnarStaticSystem(seed=SEED, tracker="full"),
}

#: measured 7.52 (columnar, 4 129 frames for 549 forwarders) and 7.46
#: (object, 4 098); 8.4 has no room for one more frame per forwarder on
#: either (8.46 and 8.52 would)
BUDGET_FRAMES_PER_FORWARDER = 8.4


def planted(function):
    """``function`` behind one more frame whose code lives under
    ``src/repro/`` as far as the profiler can tell."""
    namespace = {"function": function}
    source = "def extra(*args, **kwargs):\n    return function(*args, **kwargs)\n"
    exec(compile(source, PACKAGE + "/planted.py", "exec"), namespace)
    return namespace["extra"]


def measure_flood(facade: str) -> dict:
    """Frames, forwarders, transport entries and hop depth of one
    ``(50, 500)`` flood on ``facade``."""
    system = FACADES[facade]()
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

    try:
        # one flood to warm up (each member seeds its stream on its first
        # action), the second is measured
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
    finally:
        system.close()
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


@pytest.mark.parametrize("facade", sorted(FACADES))
def test_flood_frames_per_forwarder_within_budget(facade):
    assert_within_budget(measure_flood(facade))


@pytest.mark.parametrize("facade", sorted(FACADES))
def test_flood_pays_one_transport_entry_per_hop(facade):
    counts = measure_flood(facade)
    assert counts["entries"] <= counts["depth"] + 1, counts


@pytest.mark.parametrize("facade", sorted(FACADES))
def test_budget_fails_on_a_frame_planted_under_gossip_targets(
    facade, monkeypatch
):
    monkeypatch.setattr(
        ColumnarGroupTables,
        "sample_row",
        planted(ColumnarGroupTables.sample_row),
    )
    with pytest.raises(AssertionError, match="budget"):
        assert_within_budget(measure_flood(facade))


@pytest.mark.parametrize("facade", sorted(FACADES))
def test_budget_fails_on_a_frame_planted_in_the_block_actor(
    facade, monkeypatch
):
    monkeypatch.setattr(
        ColumnarGroupActor,
        "handle_batch",
        planted(ColumnarGroupActor.handle_batch),
    )
    with pytest.raises(AssertionError, match="budget"):
        assert_within_budget(measure_flood(facade))
