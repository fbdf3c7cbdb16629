"""Static construction is paid per group, and a finished system is freed
by reference count.

Four kinds of test: what a static membership is fixed by (a group is one
pid block, and the finalize is the last change), equivalence
(``add_group`` is ``n × add_process``; a static member holds neither
protocol task, a dynamic process both from construction), the ``close()``
contract of every facade, and exact object counts — deterministic, no
timer — that fail when a per-process allocation or a per-process
reference cycle creeps back into the cold build.
"""

import gc

import pytest

from repro.baselines import (
    GossipBroadcastSystem,
    GossipMulticastSystem,
    HierarchicalGossipSystem,
    NaivePublisherSystem,
)
from repro.core import DaMulticastSystem
from repro.core.bootstrap import FindSuperContact
from repro.core.columnar import ColumnarStaticSystem
from repro.core.maintenance import KeepTableUpdated
from repro.core.process import StaticMember
from repro.errors import ConfigError
from repro.topics import ROOT, Topic
from repro.workloads.presets import load_preset
from repro.workloads.spec import compile_spec

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")
NEWS = Topic.parse(".news")


#: every facade: name -> (factory, finalize verb)
OBJECT_FACADES = {
    "damulticast": (
        lambda **kwargs: DaMulticastSystem(mode="static", **kwargs),
        "finalize_static_membership",
    ),
    "dag": (
        lambda **kwargs: DaMulticastSystem(mode="static", **kwargs),
        "finalize_static_membership",
    ),
    "columnar": (
        lambda **kwargs: ColumnarStaticSystem(tracker="full", **kwargs),
        "finalize_static_membership",
    ),
    "broadcast": (GossipBroadcastSystem, "finalize_membership"),
    "multicast": (GossipMulticastSystem, "finalize_membership"),
    "naive": (NaivePublisherSystem, "finalize_membership"),
    "hierarchical": (
        lambda **kwargs: HierarchicalGossipSystem(n_clusters=3, **kwargs),
        "finalize_membership",
    ),
}


def object_system(facade, sizes=(4, 20), **kwargs):
    """A finalized two-group system of ``facade``, with its finalize."""
    make, verb = OBJECT_FACADES[facade]
    system = make(**kwargs)
    system.add_group(T1, sizes[0])
    system.add_group(T2, sizes[1])
    if facade == "dag":  # .t1.t2 also filed under .news (§VIII)
        system.add_group(NEWS, 3)
        system.link(T2, NEWS)
    finalize = getattr(system, verb)
    finalize()
    return system, finalize


def static_system(sizes=(4, 20), **kwargs):
    return object_system("damulticast", sizes, **kwargs)[0]


#: the facades of the one static build
STATIC_FACADES = ["damulticast", "dag", "columnar"]
#: the facades that redraw their tables when a member joins
REDRAWING_FACADES = ["broadcast", "multicast", "naive", "hierarchical"]


# ----------------------------------------------------------------------
# A static membership: one pid block per group, fixed by the finalize
# ----------------------------------------------------------------------
class TestStaticMembershipIsFixed:
    @pytest.mark.parametrize("grow", ["add_process", "add_group"])
    @pytest.mark.parametrize("facade", STATIC_FACADES)
    def test_adding_to_an_earlier_topic_is_refused(self, facade, grow):
        make, _ = OBJECT_FACADES[facade]
        system = make(seed=3)
        system.add_group(T1, 4)
        system.add_group(T2, 20)
        # the last topic's block grows ...
        if grow == "add_group":
            extra = system.add_group(T2, 2)
        else:
            extra = [system.add_process(T2)]
        assert [m.pid for m in extra] == list(range(24, 24 + len(extra)))
        # ... and an earlier topic's cannot
        with pytest.raises(ConfigError, match=r"\.t1 is one contiguous pid block"):
            if grow == "add_group":
                system.add_group(T1, 1)
            else:
                system.add_process(T1)
        assert system.group_pids(T1) == [0, 1, 2, 3]
        system.finalize_static_membership()
        event = system.publish(T2)
        system.run_until_idle()
        assert system.tracker.expected(event.event_id) == 4 + 20 + len(extra)

    @pytest.mark.parametrize("change", ["add_process", "add_group", "link"])
    @pytest.mark.parametrize("facade", STATIC_FACADES)
    def test_a_change_after_the_finalize_is_refused(self, facade, change):
        system, finalize = object_system(facade, seed=3, p_success=1.0)
        sent = system.stats.total_sent
        with pytest.raises(ConfigError, match=r"cannot change \.t1\.t2: finalize"):
            if change == "add_process":
                system.add_process(T2)
            elif change == "add_group":
                system.add_group(T2, 1)
            else:
                system.link(T2, ROOT)
        with pytest.raises(ConfigError, match="already finalized"):
            finalize()
        assert len(system.processes) == len(system.harness.network)
        event = system.publish(T2)
        system.run_until_idle()
        assert system.delivered_fraction(event, T2) == 1.0
        assert system.stats.total_sent > sent


# ----------------------------------------------------------------------
# Adding to a finalized system that redraws
# ----------------------------------------------------------------------
class TestAddAfterFinalize:
    @pytest.mark.parametrize("grow", ["add_process", "add_group"])
    @pytest.mark.parametrize("facade", REDRAWING_FACADES)
    def test_publish_waits_for_the_tables_to_be_redrawn(self, facade, grow):
        system, finalize = object_system(facade, seed=3, p_success=1.0)
        if grow == "add_process":
            late = system.add_process(T2)
        else:
            late = system.add_group(T2, 1)[0]
        # the newcomer has no tables and nobody's table holds it
        assert late.memory_footprint == 0
        with pytest.raises(ConfigError, match=finalize.__name__):
            system.publish(T2)
        with pytest.raises(ConfigError, match=finalize.__name__):
            system.publish(T2, publisher=late)
        finalize()
        event = system.publish(T2, publisher=late)
        system.run_until_idle()
        assert system.delivered_fraction(event, T2) == 1.0
        assert late.pid in system.tracker.receivers(event.event_id)


@pytest.mark.parametrize("facade", STATIC_FACADES)
def test_a_process_publishes_events_of_its_own_topic_only(facade):
    system, _ = object_system(facade, seed=1)
    outsider = system.group(T1)[0]
    with pytest.raises(ConfigError, match=r"\.t1 events, not \.t1\.t2"):
        system.publish(T2, publisher=outsider)
    assert system.stats.total_sent == 0
    event = system.publish(T1, publisher=outsider)
    assert event.topic == T1


# ----------------------------------------------------------------------
# add_group(t, n) == n x add_process(t)
# ----------------------------------------------------------------------
def _populate(mode, one_by_one, seed=11):
    system = DaMulticastSystem(mode=mode, seed=seed, p_success=0.9)
    for topic, count in ((T1, 5), (T2, 40)):
        if one_by_one:
            for _ in range(count):
                system.add_process(topic)
        else:
            system.add_group(topic, count)
    if mode == "static":
        system.finalize_static_membership()
    else:
        system.run(until=12.0)
    return system


def _stream_states(system):
    rngs = system.harness.rngs
    return {name: rngs.stream(name).getstate() for name in sorted(rngs._streams)}


def _tables(system):
    """A static system's construction digest; a dynamic system has no
    construction, so its live tables, in pid order."""
    if system.mode == "static":
        return system.construction_digest()
    return [
        (p.topic_table().pids, p.super_table.pids, p.super_table.target_topic)
        for p in system.processes
    ]


@pytest.mark.parametrize("mode", ["static", "dynamic"])
def test_add_group_is_n_times_add_process(mode):
    grouped = _populate(mode, one_by_one=False)
    single = _populate(mode, one_by_one=True)
    assert [p.pid for p in grouped.processes] == list(range(45))
    assert _tables(grouped) == _tables(single)
    assert sorted(grouped.harness.rngs._streams) == sorted(
        single.harness.rngs._streams
    )
    assert _stream_states(grouped) == _stream_states(single)
    horizon = None if mode == "static" else 16.0
    events = []
    for system in (grouped, single):
        events.append(system.publish(T2).event_id)
        system.run(until=horizon)
    assert grouped.stats.as_dict() == single.stats.as_dict()
    assert _stream_states(grouped) == _stream_states(single)
    assert events[0] == events[1]
    assert dict(grouped.tracker.receivers(events[0])) == dict(
        single.tracker.receivers(events[1])
    )


# ----------------------------------------------------------------------
# The two protocol tasks: none in static mode, both from construction in
# dynamic mode
# ----------------------------------------------------------------------
TASKS = ("find_super_contact", "maintenance")


def _built_tasks(process):
    return [name for name in TASKS if name in vars(process)]


class TestProtocolTasks:
    def test_dynamic_process_holds_both_from_construction(self):
        system = DaMulticastSystem(mode="dynamic", seed=0)
        process = system.add_process(T2, subscribe=False)
        assert _built_tasks(process) == list(TASKS)
        assert isinstance(vars(process)["find_super_contact"], FindSuperContact)
        assert isinstance(vars(process)["maintenance"], KeepTableUpdated)

    def test_a_static_member_holds_no_task(self):
        system = static_system()
        process = system.group(T2)[0]
        assert not any(hasattr(process, name) for name in TASKS)
        assert system.engine.pending == 0
        assert system.stats.total_sent == 0


# ----------------------------------------------------------------------
# close() on every facade that keeps process objects
# ----------------------------------------------------------------------
@pytest.mark.parametrize("facade", OBJECT_FACADES)
def test_close_is_idempotent_and_a_closed_system_refuses_work(facade):
    system, finalize = object_system(facade, seed=0)
    system.publish(T2)
    system.run_until_idle()
    sent = system.stats.total_sent
    assert sent > 0
    system.close()
    system.close()
    assert len(system.harness.network) == 0
    assert system.stats.total_sent == sent  # statistics stay readable
    assert list(system.topics()) == [] and system.group_pids(T2) == []
    with pytest.raises(ConfigError, match="closed"):
        system.publish(T2)
    with pytest.raises(ConfigError, match="closed"):
        system.add_group(T2, 1)
    with pytest.raises(ConfigError, match="closed"):
        finalize()
    assert system.processes == []
    with pytest.raises(ConfigError, match="closed"):
        system.add_process(T2)


# ----------------------------------------------------------------------
# Exact counts on the paper's population (10 + 100 + 1000 processes)
# ----------------------------------------------------------------------
def _live(kind):
    return sum(1 for obj in gc.get_objects() if type(obj) is kind)


def _warm(preset):
    compiled = compile_spec(load_preset(preset))
    compiled.run(0)  # first-use caches, imports
    gc.collect()
    gc.disable()
    try:
        yield compiled
    finally:
        gc.enable()


@pytest.fixture
def paper_vii():
    yield from _warm("paper-vii")


@pytest.fixture
def baseline_compare():
    yield from _warm("baseline-compare")


class TestExactCounts:
    def test_a_finished_run_leaves_nothing_for_the_cycle_collector(
        self, paper_vii
    ):
        before = _live(StaticMember)
        metrics = paper_vii.run(1)
        assert metrics["processes"] == 1110.0
        assert _live(StaticMember) == before
        assert gc.collect() == 0

    def test_build_hands_the_system_to_the_caller(self, paper_vii):
        before = _live(StaticMember)
        built = paper_vii.build(1)
        built.execute()
        # still the caller's: queries after execute() see every process
        assert len(built.system.processes) == 1110
        assert _live(StaticMember) == before + 1110
        assert built.metrics()["processes"] == 1110.0
        built.system.close()
        del built
        assert _live(StaticMember) == before
        assert gc.collect() == 0

    def test_objects_one_build_adds(self, paper_vii):
        tasks = _live(FindSuperContact) + _live(KeepTableUpdated)
        tracked = len(gc.get_objects())
        built = paper_vii.build(1)
        added = len(gc.get_objects()) - tracked
        assert _live(FindSuperContact) + _live(KeepTableUpdated) == tasks
        # 1 per process — its ``StaticMember`` record — plus about 75 per
        # system: measured 1 183 (2 296 while each process was an object
        # with its own ``seen`` set, 3 406 while it also kept a
        # ``delivered`` list beside the tracker, 12 276 while it held
        # descriptor tables). Its tables are a row of its group's columns,
        # its dedup state a byte of the group's per-event bitmask, and its
        # RNG stream waits in its group's row list for its first action.
        assert added <= 1_270, added
        built.system.close()

    def test_objects_one_baseline_build_adds(self, baseline_compare):
        tracked = len(gc.get_objects())
        built = baseline_compare.build(1)
        added = len(gc.get_objects()) - tracked
        assert len(built.system.processes) == 1110
        # 4 per broadcast process — the process, its ``seen`` set,
        # ``groups`` dict and one ``GroupState`` — plus about 50 per
        # system: measured 4 492 (5 602 with a ``delivered`` list per
        # process, 8 929 while each table was a view of descriptors). The
        # table is a row of the one global group's pid column.
        assert added <= 4_590, added
        built.system.close()
