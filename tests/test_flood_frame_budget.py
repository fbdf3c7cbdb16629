"""An exact-count budget for the flood (ROADMAP 1(d), tier-1).

The sibling of ``test_channel_frame_budget.py`` (a transmission on the
general channel), one layer up. Both static facades —
``DaMulticastSystem(mode="static")`` and ``ColumnarStaticSystem`` — flood
through one block actor per group, and dynamic daMulticast through its
processes' one block; every first receipt runs the one Fig. 7 kernel
(``repro.core.group_actor.forward``). One clean-channel flood runs on
each under ``sys.setprofile``; every ``call`` event of a frame whose code
lives under ``src/repro/`` counts, from the engine's loop down to the
sampler (comprehension frames are left out, as CPython 3.12 inlines
them, so the counts are the same on 3.11 and 3.12). The numbers, all
exact:

* **static frames per forwarder** — over groups of 50 and 500, delivery
  tracking included, divided by the 549 processes that received the
  event first-hand and forwarded it (every member but the publisher):
  6.79 on the columnar system (3 730 frames) and 6.74 on
  ``DaMulticastSystem`` (3 698; its members draw from their own streams,
  so its flood is another flood). They read 7.52 (4 129) and 7.46
  (4 098) while the actor ran Fig. 7 as a method of its own
  (``_forward``) that drew the gossip through
  ``ColumnarGroupTables.sample_row``: a first receipt is now the kernel
  and the sampler, and a batch with one loads the network's
  ``multicast`` once. They read 7.53 (4 135) and 7.47 (4 103) while every
  engine entry still had an ``EventHandle`` of its own; a flood
  schedules few entries (one per hop), so a plain-list entry saves it
  only those frames.
  Both read 11.56 (6 345) and 11.49 (6 309) while Fig. 7 reached the
  block actor's pid columns through a flyweight peer rebound per member
  (``disseminate``, two ``link_targets`` and ``gossip_targets`` frames,
  the peer's ``multicast`` and a new inter ``Scope`` per hand-off). The
  columnar flood read 12.30 (6 752) while a batch of later copies still
  loaded what a first receipt needs, the clock's ``now`` property among
  it, and before that 27.39 when every fan-out was its own transport
  entry, then 18.45 until the parasite check ran once per event and group
  instead of once per batch and link election became one
  ``ColumnarGroupTables`` method, then 16.40 until a ``Topic`` became one
  object per path, then 14.30 until a fan-out issued inside a wave was
  counted when the wave's delivery ends. ``DaMulticastSystem``'s flood
  read 14.03 over groups of 6 and 60 while each static process was a
  network actor of its own, entered once per reception (a duplicate
  receipt cost one frame; in the block actor's loop it costs none);
* **dynamic frames per forwarder** — a ``(10, 50)`` chain of dynamic
  daMulticast, seed 1, zero latency, run to t = 30 and then published
  once from the subgroup: every copy arrives at the publish instant, so
  running the engine to ``now`` runs the flood and no background task
  (the test asserts that no frame of ``core/maintenance.py``,
  ``core/bootstrap.py`` or ``membership/flat.py`` falls inside the
  window). 14.61 (862 frames for 59 forwarders), the first flood after
  the warm-up, so each process still resolves its ``fanout(S)`` and
  ``p_sel(S)`` and makes its inter ``Scope`` once. It read 16.61 (980)
  while a first receipt read its supertopic table's and its view's pids
  through properties that copied them (two frames per forwarder; a
  view's pid list is now an attribute, read in place), and 33.08
  (1 952) while each process ran Fig. 5 and Fig. 7 itself
  (``handle_message`` per copy, duplicates included — 535 frames —,
  a ``seen`` set, ``disseminate``, ``link_targets``/``elect_links``,
  ``gossip_targets``/``sample_pids``); its block now dedups as a
  static actor does and calls ``DaMulticastProcess.deliver`` per first
  receipt. On ``(20, 200)`` the same window reads 20.11 (4 404 frames
  for 219 forwarders), 38.13 before.
  Each budget leaves less than one frame per forwarder, so it fails the
  day someone re-adds one — the planted-frame tests put one under the
  kernel's gossip draw (``sample_from``) and one in each block actor's
  entry;
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
from repro.core import group_actor
from repro.core.columnar import ColumnarStaticSystem
from repro.core.group_actor import ColumnarGroupActor
from repro.core.process import ProcessBlock
from repro.core.system import DaMulticastSystem
from repro.net.network import Network

PACKAGE = str(pathlib.Path(repro.__file__).resolve().parent)
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>"}
#: the dynamic protocol's background tasks: none may run inside a
#: measured dynamic flood
TIMER_MODULES = tuple(
    PACKAGE + path
    for path in ("/core/maintenance.py", "/core/bootstrap.py", "/membership/flat.py")
)
SEED = 1

#: the two facades of the one static build, each with the full tracker
FACADES = {
    "object": lambda: DaMulticastSystem(mode="static", seed=SEED),
    "columnar": lambda: ColumnarStaticSystem(seed=SEED, tracker="full"),
}

#: measured 6.79 (columnar, 3 730 frames for 549 forwarders) and 6.74
#: (object, 3 698); 7.7 has no room for one more frame per forwarder on
#: either (7.79 and 7.74 would)
BUDGET_FRAMES_PER_FORWARDER = 7.7
#: measured 14.61 on the dynamic flood (862 frames for 59 forwarders);
#: 15.5 has no room for one more frame per forwarder (15.61 would)
DYNAMIC_BUDGET_FRAMES_PER_FORWARDER = 15.5


def planted(function):
    """``function`` behind one more frame whose code lives under
    ``src/repro/`` as far as the profiler can tell."""
    namespace = {"function": function}
    source = "def extra(*args, **kwargs):\n    return function(*args, **kwargs)\n"
    exec(compile(source, PACKAGE + "/planted.py", "exec"), namespace)
    return namespace["extra"]


def profiled(run) -> dict:
    """Run ``run()`` under ``sys.setprofile``: every ``call`` of a frame
    whose code lives under ``src/repro/`` (comprehensions left out), the
    transport entries among them, and the frames of the dynamic
    protocol's background tasks."""
    deliveries = {
        Network._deliver_wave.__code__,
        Network._deliver_batch.__code__,
        Network._deliver.__code__,
    }
    counts = {"frames": 0, "entries": 0, "timer_frames": []}

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
            if code.co_filename.startswith(TIMER_MODULES):
                counts["timer_frames"].append(code.co_name)

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def measure_flood(facade: str) -> dict:
    """Frames, forwarders, transport entries and hop depth of one
    ``(50, 500)`` flood on ``facade``."""
    system = FACADES[facade]()
    system.add_group(".t1", 50)
    system.add_group(".t1.t2", 500)
    system.finalize_static_membership()
    try:
        # one flood to warm up (each member seeds its stream on its first
        # action), the second is measured
        system.publish(".t1.t2")
        system.run_until_idle()
        event = system.publish(".t1.t2")
        counts = profiled(system.run_until_idle)
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


def measure_dynamic_flood() -> dict:
    """Frames and forwarders of one ``(10, 50)`` flood of dynamic
    daMulticast at zero latency: every copy is delivered at the publish
    instant, so running the engine to ``now`` runs the flood and nothing
    else."""
    system = DaMulticastSystem(mode="dynamic", seed=SEED)
    system.add_group(".t1", 10)
    system.add_group(".t1.t2", 50)
    try:
        system.run(until=30)  # membership and supertopic tables converge
        event = system.publish(".t1.t2")
        counts = profiled(lambda: system.run(until=system.now))
        receivers = system.tracker.receivers(event.event_id)
    finally:
        system.close()
    # the flood is the one the budget was measured on: every process
    # delivered it, and no background task ran inside the window
    assert len(receivers) == 60
    assert counts["timer_frames"] == [], counts["timer_frames"]
    counts["forwarders"] = len(receivers) - 1  # all but the publisher
    return counts


def assert_within_budget(
    counts: dict, budget: float = BUDGET_FRAMES_PER_FORWARDER
) -> None:
    per_forwarder = counts["frames"] / counts["forwarders"]
    assert per_forwarder <= budget, (
        f"{counts['frames']} frames under src/repro/ for "
        f"{counts['forwarders']} forwarders = {per_forwarder:.2f} each, "
        f"budget {budget}"
    )


@pytest.mark.parametrize("facade", sorted(FACADES))
def test_flood_frames_per_forwarder_within_budget(facade):
    assert_within_budget(measure_flood(facade))


@pytest.mark.parametrize("facade", sorted(FACADES))
def test_flood_pays_one_transport_entry_per_hop(facade):
    counts = measure_flood(facade)
    assert counts["entries"] <= counts["depth"] + 1, counts


@pytest.mark.parametrize("facade", sorted(FACADES))
def test_budget_fails_on_a_frame_planted_under_the_gossip_draw(
    facade, monkeypatch
):
    monkeypatch.setattr(
        group_actor, "sample_from", planted(group_actor.sample_from)
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


def test_dynamic_flood_frames_per_forwarder_within_budget():
    assert_within_budget(measure_dynamic_flood(), DYNAMIC_BUDGET_FRAMES_PER_FORWARDER)


def test_dynamic_budget_fails_on_a_frame_planted_in_the_process_block(
    monkeypatch,
):
    monkeypatch.setattr(
        ProcessBlock, "handle_batch", planted(ProcessBlock.handle_batch)
    )
    with pytest.raises(AssertionError, match="budget"):
        assert_within_budget(
            measure_dynamic_flood(), DYNAMIC_BUDGET_FRAMES_PER_FORWARDER
        )


def test_dynamic_budget_fails_on_a_frame_planted_under_the_gossip_draw(
    monkeypatch,
):
    monkeypatch.setattr(
        group_actor, "sample_from", planted(group_actor.sample_from)
    )
    with pytest.raises(AssertionError, match="budget"):
        assert_within_budget(
            measure_dynamic_flood(), DYNAMIC_BUDGET_FRAMES_PER_FORWARDER
        )
