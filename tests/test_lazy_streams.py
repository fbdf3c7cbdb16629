"""Per-process streams are seeded on first action — and nobody can tell.

A static group's block actor holds one stream row per member, left empty
by ``DaMulticastSystem(mode="static")``: a member's ``process/{pid}``
stream is seeded the first time it acts (delivers or publishes). Named
streams are independent of each other and of *when* they are created, so a
run in which every row is filled up front must be the same run: that is
the property below, over a tree and over a §VIII DAG. What does change is
how many streams a run seeds, and that is an exact count: over the ten
points of the ledger's Fig. 10 sweep (master seed 0), 5 522 of 11 100
processes ever act, and exactly those have a stream.
"""

import gc
import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.baselines import GossipBroadcastSystem
from repro.core import DaMulticastSystem
from repro.core.group_actor import ColumnarGroupActor
from repro.failures import sample_stillborn
from repro.runtime import StaticMember
from repro.sim.rng import derive_seed
from repro.topics import ROOT, Topic
from repro.workloads.presets import load_preset
from repro.workloads.spec import compile_spec_cached, spec_with

NEWS = Topic.parse(".news")
SPORTS = Topic.parse(".sports")
FOOTBALL = Topic.parse(".sports.football")


def _process_streams(system) -> list[str]:
    return [
        name
        for name in sorted(system.harness.rngs._streams)
        if name.startswith(("process/", "baseline-process/"))
    ]


def _seed_every_row(system) -> None:
    """Fill every static member's stream row up front."""
    rngs = system.harness.rngs
    for topic in system.topics():
        actor = system.group_actor(topic)
        actor.streams[:] = [
            rngs.stream(f"process/{member.pid}") for member in actor.members
        ]


def _acted(system, events) -> set[str]:
    """The ``process/{pid}`` stream names of every member that delivered
    (the publisher included)."""
    return {
        f"process/{pid}"
        for event in events
        for pid in system.tracker.receivers(event.event_id)
    }


def _observe(system, events) -> dict:
    """Everything a run leaves behind that a draw could have moved."""
    rngs = system.harness.rngs
    return {
        "receivers": [
            dict(system.tracker.receivers(event.event_id)) for event in events
        ],
        "hops": [system.tracker.delivery_hops(event.event_id) for event in events],
        "stats": system.stats.as_dict(),
        "processed": system.engine.processed,
        "streams": {name: rngs.stream(name).getstate() for name in sorted(rngs._streams)},
    }


def _assert_same_run(lazy: dict, eager: dict) -> None:
    lazy_streams, eager_streams = lazy.pop("streams"), eager.pop("streams")
    assert lazy == eager
    # the eager run seeded more streams and drew from none of the extra
    # ones; every stream the lazy run made ended in the same state
    assert set(lazy_streams) <= set(eager_streams)
    for name, state in lazy_streams.items():
        assert eager_streams[name] == state, name


# ----------------------------------------------------------------------
# Laziness is invisible
# ----------------------------------------------------------------------
def _spec(counts, alive_fraction, p_success) -> dict:
    return {
        "name": "lazy-streams",
        "protocol": "daMulticast",
        "topics": {"kind": "chain", "depth": 2, "prefix": "t"},
        "subscriptions": {"kind": "per_level", "counts": list(counts)},
        "publications": {"kind": "single", "level": -1},
        "failures": {"kind": "stillborn", "alive_fraction": alive_fraction},
        "p_success": p_success,
    }


@given(
    counts=st.tuples(
        st.integers(1, 6), st.integers(1, 25), st.integers(2, 80)
    ),
    alive_fraction=st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9, 1.0]),
    p_success=st.sampled_from([0.3, 0.85, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_object_host_seeding_every_stream_up_front_is_the_same_run(
    counts, alive_fraction, p_success, seed
):
    compiled = compile_spec_cached(_spec(counts, alive_fraction, p_success))
    observations = []
    for eager in (False, True):
        built = compiled.build(seed)
        system = built.system
        try:
            if eager:
                _seed_every_row(system)
                assert len(_process_streams(system)) == sum(counts)
            else:
                assert _process_streams(system) == []
            built.execute()
            observations.append(_observe(system, built.published))
        finally:
            system.close()
    _assert_same_run(*observations)


@given(
    sizes=st.tuples(
        st.integers(1, 5), st.integers(1, 12), st.integers(1, 12),
        st.integers(2, 40),
    ),
    alive_fraction=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
    p_success=st.sampled_from([0.5, 0.85, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_multi_parent_seeding_every_stream_up_front_is_the_same_run(
    sizes, alive_fraction, p_success, seed
):
    observations = []
    for eager in (False, True):
        system = DaMulticastSystem(
            mode="static", seed=seed, p_success=p_success
        )
        try:
            for topic, size in zip((ROOT, NEWS, SPORTS, FOOTBALL), sizes):
                system.add_group(topic, size)
            system.link(FOOTBALL, NEWS)
            system.finalize_static_membership()
            publisher = system.group(FOOTBALL)[0]
            system.network.failure_model = sample_stillborn(
                [process.pid for process in system.processes],
                alive_fraction,
                random.Random(seed),
                protected=[publisher.pid],
            )
            if eager:
                _seed_every_row(system)
            else:
                assert _process_streams(system) == []
            event = system.publish(FOOTBALL, publisher=publisher)
            system.run_until_idle()
            observations.append(_observe(system, [event]))
        finally:
            system.close()
    _assert_same_run(*observations)


# ----------------------------------------------------------------------
# Exact counts: a stream per process that acted, no other
# ----------------------------------------------------------------------
#: alive fraction → processes reached, over the ledger's Fig. 10 sweep at
#: master seed 0 (``paper-vii``: 10 + 100 + 1 000 processes per point)
FIG10_ACTING = {
    0.1: 4, 0.2: 2, 0.3: 278, 0.4: 404, 0.5: 483,
    0.6: 599, 0.7: 763, 0.8: 884, 0.9: 996, 1.0: 1109,
}


def test_fig10_sweep_seeds_a_stream_per_acting_process():
    spec = load_preset("paper-vii")
    field = "failures.alive_fraction"
    seeded = {}
    for value in FIG10_ACTING:
        # the seed sweep_scenario gives this point's first cell
        seed = derive_seed(0, f"scenario/paper-vii/{field}/{value}/0")
        built = compile_spec_cached(spec_with(spec, field, value)).build(seed)
        try:
            assert _process_streams(built.system) == []
            built.execute()
            acted = _acted(built.system, built.published)
            assert set(_process_streams(built.system)) == acted
            seeded[value] = len(acted)
        finally:
            built.system.close()
    assert seeded == FIG10_ACTING
    assert sum(seeded.values()) == 5522  # of 11 100; eager seeding: 11 100


def test_baseline_processes_follow_the_same_convention():
    system = GossipBroadcastSystem(seed=3, p_success=0.85)
    try:
        system.add_group(".t1", 5)
        system.add_group(".t1.t2", 40)
        system.finalize_static_membership()
        system.network.failure_model = sample_stillborn(
            [process.pid for process in system.processes], 0.5, random.Random(3),
            protected=[system.group(".t1.t2")[0].pid],
        )
        assert _process_streams(system) == []
        event = system.publish(".t1.t2", publisher=system.group(".t1.t2")[0])
        system.run_until_idle()
        # every receiver forwards once, the publisher included
        acted = {
            f"baseline-process/{pid}" for pid in system.tracker.receivers(event.event_id)
        }
        assert 1 < len(acted) < 45
        assert set(_process_streams(system)) == acted
        # the actor's stream rows hold exactly those streams
        rows = system._actors[event.topic].streams
        assert {
            f"baseline-process/{pid}" for pid, rng in enumerate(rows) if rng is not None
        } == acted
    finally:
        system.close()


# ----------------------------------------------------------------------
# A member that never acts never gets a stream
# ----------------------------------------------------------------------
def _small_run(seed=11):
    spec = _spec((2, 5, 30), alive_fraction=0.3, p_success=0.85)
    built = compile_spec_cached(spec).build(seed)
    built.execute()
    return built


def test_a_never_reached_member_keeps_an_empty_row():
    built = _small_run()
    try:
        system = built.system
        acted = _acted(system, built.published)
        idle = [
            member for member in system.processes
            if f"process/{member.pid}" not in acted
        ]
        assert idle  # 70 % stillborn: most processes never act
        streams = system.harness.rngs._streams
        for member in idle:
            assert f"process/{member.pid}" not in streams
            actor = system.group_actor(member.topic)
            assert actor.streams[member.pid - actor.base] is None
        for member in system.processes:
            if f"process/{member.pid}" in acted:
                actor = system.group_actor(member.topic)
                assert actor.streams[member.pid - actor.base] is streams[
                    f"process/{member.pid}"
                ]
    finally:
        built.system.close()


def test_dynamic_processes_are_seeded_at_construction():
    system = DaMulticastSystem(mode="dynamic", seed=5)
    try:
        created = system.add_group(".t1", 4)
        assert set(_process_streams(system)) == {
            f"process/{process.pid}" for process in created
        }
    finally:
        system.close()


def test_close_frees_lazy_processes_by_reference_count():
    """A block actor keeps the stream registry and its members; neither
    keeps the system, so no reference closes a cycle."""
    def live() -> int:
        kinds = (StaticMember, ColumnarGroupActor)
        return sum(1 for obj in gc.get_objects() if type(obj) in kinds)

    gc.collect()
    before = live()
    built = _small_run()
    gc.disable()
    try:
        assert live() == before + 37 + 3  # 2 + 5 + 30 members, 3 groups
        built.system.close()
        del built
        assert live() == before
        assert gc.collect() == 0
    finally:
        gc.enable()
