"""An exact-count budget for the general channel (ROADMAP 1(d), in tier-1).

Wall-clock gates drown in machine noise; the number of Python frames a
transmission costs does not. One fixed small scenario runs over the general
channel — latency classes, Bernoulli loss, Gilbert–Elliott on the ``inter``
links — and every ``call`` event of a frame whose code lives under
``src/repro/`` is counted with ``sys.setprofile``. Stdlib frames, C calls and
comprehension frames are not counted (CPython 3.12 inlines comprehensions),
so the count is the same on 3.11 and 3.12.

The same scenario cost 15 407 frames, 32.85 per transmission (comprehensions
included, as they were then counted), before the link classification moved
to the network (one per fan-out instead of two per target), the engine lost
its per-event pass-through frames and a lone target stopped being dressed as
a batch; 13.27 (12.998 without comprehensions, 6 096 frames) once the clean
channel collected waves; and 12.25 (5 744 frames for 469 transmissions)
once a ``Topic`` was one object per path — the link classifier and the
per-group send counters compare and hash it in C — and messages filled
their slots directly; and 11.11 (5 212 frames) since a static group is one
block actor, which ``Network._deliver`` reaches through its block cache and
which reads nothing but its seen bitmask for a later copy; and 10.39 (4 872
frames) since the block actor runs Fig. 7 itself, one call per first
receipt, instead of through a flyweight peer rebound per member; and 8.50
(3 984 frames) since an engine entry is a plain ``[time, seq, fn, args,
count]`` list that is its own handle — a scheduled call no longer pays an
``EventHandle.__init__`` frame — and ``Network._deliver`` counts its
delivery inline instead of through ``NetworkStats.record_delivered``. The
budget leaves less than one frame per transmission, so one more frame per
transmission anywhere between ``Network.multicast`` and the block actor's
seen check fails it; the last test plants one in
``BernoulliLoss.transmit``, which every transmission on an ``intra`` link
passes (0.94 frames per transmission).
"""

import pathlib
import sys

import pytest

import repro
from repro.net.faults import BernoulliLoss
from repro.workloads.spec import compile_spec

PACKAGE = str(pathlib.Path(repro.__file__).resolve().parent)
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>"}

SPEC = {
    "name": "frame-budget",
    "protocol": "daMulticast",
    "topics": {"kind": "chain", "depth": 2, "prefix": "t"},
    "subscriptions": {"kind": "per_level", "counts": [3, 10, 50]},
    "publications": {
        "kind": "mixed",
        "parts": [
            {"kind": "single", "level": -1, "at": 0.0},
            {"kind": "single", "level": 1, "at": 1.0},
        ],
    },
    "latency": {
        "kind": "uniform", "low": 0.05, "high": 0.2,
        "overrides": {"inter": {"kind": "uniform", "low": 0.2, "high": 0.8}},
    },
    "faults": {
        "loss": {"kind": "bernoulli", "p": 0.05},
        "overrides": {
            "inter": {
                "loss": {
                    "kind": "gilbert_elliott",
                    "p_good_bad": 0.05, "p_bad_good": 0.3,
                    "loss_good": 0.0, "loss_bad": 0.9,
                },
            }
        },
    },
    "p_success": 1.0,
}
SEED = 7

#: measured 8.50 (3 984 frames for 469 transmissions); 9.3 has no room
#: for one more frame per transmission (the planted one reads 9.44)
BUDGET_FRAMES_PER_TRANSMISSION = 9.3


def planted(function):
    """``function`` behind one more frame whose code lives under
    ``src/repro/`` as far as the profiler can tell."""
    namespace = {"function": function}
    source = "def extra(*args, **kwargs):\n    return function(*args, **kwargs)\n"
    exec(compile(source, PACKAGE + "/planted.py", "exec"), namespace)
    return namespace["extra"]


def count_package_frames(run) -> int:
    """Python frames entered under ``src/repro/`` while ``run()`` executes."""
    frames = 0

    def profiler(frame, event, arg):
        nonlocal frames
        code = frame.f_code
        if (
            event == "call"
            and code.co_filename.startswith(PACKAGE)
            and code.co_name not in COMPREHENSIONS
        ):
            frames += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return frames


def measure_channel() -> tuple[int, int]:
    """Frames and transmissions of one run of :data:`SPEC`."""
    built = compile_spec(SPEC).build(SEED)
    try:
        frames = count_package_frames(built.execute)
        stats = built.system.stats
        transmissions = stats.total_sent
        # the scenario is the one the budget was measured on
        assert transmissions == 469
        assert stats.faults_by_reason["loss"] > 0
        assert stats.delivered_by_kind["event"] > transmissions // 2
    finally:
        built.system.close()
    return frames, transmissions


def assert_within_budget(frames: int, transmissions: int) -> None:
    per_transmission = frames / transmissions
    assert per_transmission <= BUDGET_FRAMES_PER_TRANSMISSION, (
        f"{frames} frames under src/repro/ for {transmissions} "
        f"transmissions = {per_transmission:.2f} per transmission, "
        f"budget {BUDGET_FRAMES_PER_TRANSMISSION}"
    )


def test_general_channel_frames_per_transmission_within_budget():
    assert_within_budget(*measure_channel())


def test_budget_fails_on_a_frame_planted_in_the_loss_model(monkeypatch):
    monkeypatch.setattr(
        BernoulliLoss, "transmit", planted(BernoulliLoss.transmit)
    )
    with pytest.raises(AssertionError, match="budget"):
        assert_within_budget(*measure_channel())
