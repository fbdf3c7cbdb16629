"""Static construction is paid per group, and a finished system is freed
by reference count.

Three kinds of test: equivalence (``add_group`` is ``n × add_process``; a
static process holds neither protocol task, a dynamic one both from
construction), the ``close()`` contract of every system facade, and
exact object counts — deterministic, no timer — that fail
when a per-process allocation or a per-process reference cycle creeps
back into the cold build.
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
from repro.core.multiparent import MultiParentSystem
from repro.core.process import StaticProcess
from repro.errors import ConfigError
from repro.topics import Topic, TopicDag
from repro.workloads.presets import load_preset
from repro.workloads.spec import compile_spec

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")


def _multiparent_system(**kwargs):
    dag = TopicDag()
    dag.add(T2)
    return MultiParentSystem(dag, **kwargs)


#: every facade that keeps process objects: name -> (factory, finalize verb)
OBJECT_FACADES = {
    "damulticast": (
        lambda **kwargs: DaMulticastSystem(mode="static", **kwargs),
        "finalize_static_membership",
    ),
    "multiparent": (_multiparent_system, "finalize_static_membership"),
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
    finalize = getattr(system, verb)
    finalize()
    return system, finalize


def static_system(sizes=(4, 20), **kwargs):
    return object_system("damulticast", sizes, **kwargs)[0]


# ----------------------------------------------------------------------
# Adding to a finalized static system
# ----------------------------------------------------------------------
class TestAddAfterFinalize:
    @pytest.mark.parametrize("grow", ["add_process", "add_group"])
    @pytest.mark.parametrize("facade", OBJECT_FACADES)
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
        assert system.tracker.delivered(event.event_id, late.pid)


@pytest.mark.parametrize("facade", ["damulticast", "multiparent"])
def test_a_process_publishes_events_of_its_own_topic_only(facade):
    system, _ = object_system(facade, seed=1)
    outsider = system.group(T1)[0]
    with pytest.raises(ConfigError, match=r"\.t1 events, not \.t1\.t2"):
        system.publish(T2, publisher=outsider)
    assert outsider.seen == set() and system.stats.total_sent == 0
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
    return {name: rngs.stream(name).getstate() for name in rngs.streams()}


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
    assert list(grouped.harness.rngs.streams()) == list(
        single.harness.rngs.streams()
    )
    assert _stream_states(grouped) == _stream_states(single)
    horizon = None if mode == "static" else 16.0
    for system in (grouped, single):
        system.publish(T2)
        system.run(until=horizon)
    assert grouped.stats.as_dict() == single.stats.as_dict()
    assert _stream_states(grouped) == _stream_states(single)
    assert [sorted(p.seen) for p in grouped.processes] == [
        sorted(p.seen) for p in single.processes
    ]


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

    def test_static_unsubscribe(self):
        system = static_system()
        process = system.group(T2)[0]
        assert process.subscribed
        process.unsubscribe()
        assert not process.subscribed
        # stopping builds no task to stop
        assert not any(hasattr(process, name) for name in TASKS)
        process.subscribe()
        assert process.subscribed
        assert system.engine.pending == 0
        assert system.stats.total_sent == 0


# ----------------------------------------------------------------------
# close() on every system facade
# ----------------------------------------------------------------------
def _columnar(**kwargs):
    system = ColumnarStaticSystem(**kwargs)
    system.add_group(T1, 4)
    system.add_group(T2, 20)
    system.finalize_static_membership()
    return system, system.finalize_static_membership


@pytest.mark.parametrize("facade", ["columnar", *OBJECT_FACADES])
def test_close_is_idempotent_and_a_closed_system_refuses_work(facade):
    if facade == "columnar":
        system, finalize = _columnar(seed=0)
    else:
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
    if facade != "columnar":
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
        before = _live(StaticProcess)
        metrics = paper_vii.run(1)
        assert metrics["processes"] == 1110.0
        assert _live(StaticProcess) == before
        assert gc.collect() == 0

    def test_build_hands_the_system_to_the_caller(self, paper_vii):
        before = _live(StaticProcess)
        built = paper_vii.build(1)
        built.execute()
        # still the caller's: queries after execute() see every process
        assert len(built.system.processes) == 1110
        assert _live(StaticProcess) == before + 1110
        assert built.metrics()["processes"] == 1110.0
        built.system.close()
        del built
        assert _live(StaticProcess) == before
        assert gc.collect() == 0

    def test_objects_one_build_adds(self, paper_vii):
        tasks = _live(FindSuperContact) + _live(KeepTableUpdated)
        tracked = len(gc.get_objects())
        built = paper_vii.build(1)
        added = len(gc.get_objects()) - tracked
        assert _live(FindSuperContact) + _live(KeepTableUpdated) == tasks
        # 2 per process — the process and its ``seen`` set — plus about
        # 80 per system: measured 2 296 (3 406 while each process kept a
        # ``delivered`` list beside the tracker, 12 276 while it held
        # descriptor tables). Its tables are a row of its group's columns,
        # its RNG stream and event factory wait for its first action, and
        # it shares its group's intra scope.
        assert added <= 2_390, added
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
