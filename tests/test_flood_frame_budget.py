"""An exact-count budget for the object host's flood (ROADMAP 1(d), tier-1).

The sibling of ``test_channel_frame_budget.py``, one layer up: that one
counts what a *transmission* costs between ``Network.multicast`` and the
process's ``seen`` check; this one counts what a *reception* costs from
``DaMulticastProcess.handle_message`` on. One clean-channel static flood over
groups of 6 and 60 runs under ``sys.setprofile``, and every ``call`` event of
a frame whose code lives under ``src/repro/`` is attributed to the reception
it happened in. Comprehension frames are left out (CPython 3.12 inlines
them), so the counts are the same on 3.11 and 3.12.

Two numbers, both exact:

* a **duplicate receipt** — nine receptions in ten at this size — costs one
  frame, ``handle_message`` itself (it was two: ``handle_message →
  _on_event``);
* a **forwarder** (a first receipt: deliver, elect links, sample the gossip
  targets, multicast) cost 34.52 frames before the object host selected
  pids through the shared sampler and resolved ``fanout(S)``/``p_sel(S)``
  once per group size, then 25.43, then 23.37 once a clean-channel fan-out
  issued during a delivery joined the next wave instead of paying its own
  transport entry (``Engine.dispatch`` and the ``EventHandle``), and costs
  20.22 once a static process selected off its row of the group's columns
  (``ColumnarGroupTables.link_targets``/``sample_row``) instead of through
  descriptor tables (``elect_links``, ``is_empty``, ``__len__``,
  ``topic_table``, ``sample_pids``), then 16.09 once a ``Topic`` was one
  object per path (the per-group send counters hash it in C, not through
  ``Topic.__hash__``) and both selections gated on the size cell's value
  instead of the ``group_size`` property, and costs 14.03 since a
  clean-channel fan-out issued inside a wave is counted when the wave's
  delivery ends — one ``NetworkStats.record_fanouts`` pass per wave
  instead of ``record_sent_many`` and ``record_dropped_many`` per fan-out.
  The budget leaves less than one frame per forwarder, so it fails the day
  someone re-adds one — which the last two tests do, with a frame planted
  in ``handle_message`` and one planted under ``gossip_targets``.
"""

import pathlib
import sys

import pytest

import repro
from repro.core.process import DaMulticastProcess
from repro.core.system import DaMulticastSystem
from repro.membership.columnar import ColumnarGroupTables

PACKAGE = str(pathlib.Path(repro.__file__).resolve().parent)
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>"}
SEED = 7

#: measured 14.03 (912 frames for 65 forwarders; 16.09 and 1 046 before
#: in-wave fan-outs were counted once per wave); 15.0 has no room for one
#: more frame per forwarder
BUDGET_FRAMES_PER_FORWARDER = 15.0


def planted(function):
    """``function`` behind one more frame whose code lives under
    ``src/repro/`` as far as the profiler can tell."""
    namespace = {"function": function}
    source = "def extra(*args, **kwargs):\n    return function(*args, **kwargs)\n"
    exec(compile(source, PACKAGE + "/planted.py", "exec"), namespace)
    return namespace["extra"]


def measure_flood() -> dict:
    """Frames per kind of reception over one ``(6, 60)`` static flood."""
    system = DaMulticastSystem(mode="static", seed=SEED)
    system.add_group(".t1", 6)
    system.add_group(".t1.t2", 60)
    system.finalize_static_membership()
    entry = DaMulticastProcess.handle_message.__code__
    deliver = DaMulticastProcess._deliver.__code__
    counts = {"duplicates": 0, "duplicate_frames": 0,
              "forwarders": 0, "forwarder_frames": 0}
    reception = None  # [entry frame, frames so far, delivered?]

    def profiler(frame, event, arg):
        nonlocal reception
        code = frame.f_code
        if event == "call":
            if (
                not code.co_filename.startswith(PACKAGE)
                or code.co_name in COMPREHENSIONS
            ):
                return
            if reception is None:
                if code is entry:
                    reception = [frame, 1, False]
                return
            reception[1] += 1
            if code is deliver:
                reception[2] = True
        elif event == "return" and reception and frame is reception[0]:
            kind = "forwarder" if reception[2] else "duplicate"
            counts[kind + "s"] += 1
            counts[kind + "_frames"] += reception[1]
            reception = None

    try:
        # one flood to warm up (each process resolves its group constants
        # and seeds its stream on first use), the second is measured
        system.publish(".t1.t2")
        system.run_until_idle()
        event = system.publish(".t1.t2")
        sys.setprofile(profiler)
        try:
            system.run_until_idle()
        finally:
            sys.setprofile(None)
        # the flood is the one the budget was measured on
        assert system.delivered_fraction(event, ".t1.t2") == 1.0
        assert system.delivered_fraction(event, ".t1") == 1.0
        assert counts["forwarders"] == 6 + 60 - 1
        assert counts["duplicates"] > 5 * counts["forwarders"]
    finally:
        system.close()
    return counts


def assert_within_budget(counts: dict) -> None:
    assert counts["duplicate_frames"] == counts["duplicates"], (
        f"{counts['duplicate_frames']} frames for {counts['duplicates']} "
        f"duplicate receipts: a later copy of an event costs one frame"
    )
    per_forwarder = counts["forwarder_frames"] / counts["forwarders"]
    assert per_forwarder <= BUDGET_FRAMES_PER_FORWARDER, (
        f"{counts['forwarder_frames']} frames under src/repro/ for "
        f"{counts['forwarders']} forwarders = {per_forwarder:.2f} each, "
        f"budget {BUDGET_FRAMES_PER_FORWARDER}"
    )


def test_flood_frames_per_reception_within_budget():
    assert_within_budget(measure_flood())


def test_budget_fails_on_a_frame_planted_in_handle_message(monkeypatch):
    monkeypatch.setattr(
        DaMulticastProcess,
        "handle_message",
        planted(DaMulticastProcess.handle_message),
    )
    counts = measure_flood()
    assert counts["duplicate_frames"] == 2 * counts["duplicates"]
    with pytest.raises(AssertionError, match="costs one frame"):
        assert_within_budget(counts)


def test_budget_fails_on_a_frame_planted_under_gossip_targets(monkeypatch):
    monkeypatch.setattr(
        ColumnarGroupTables,
        "sample_row",
        planted(ColumnarGroupTables.sample_row),
    )
    with pytest.raises(AssertionError, match="budget"):
        assert_within_budget(measure_flood())
