"""Static construction is paid per group, and a finished system is freed
by reference count.

Four kinds of test: what a static membership is fixed by, for every
static system — daMulticast's and the four baselines' (a group is one
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
from repro.errors import ConfigError
from repro.runtime import StaticMember
from repro.topics import ROOT, Topic
from repro.workloads.presets import load_preset
from repro.workloads.spec import compile_spec

T1 = Topic.parse(".t1")
T2 = Topic.parse(".t1.t2")
NEWS = Topic.parse(".news")


#: every facade of the one static build: name -> factory
OBJECT_FACADES = {
    "damulticast": lambda **kwargs: DaMulticastSystem(mode="static", **kwargs),
    "dag": lambda **kwargs: DaMulticastSystem(mode="static", **kwargs),
    "columnar": lambda **kwargs: ColumnarStaticSystem(tracker="full", **kwargs),
    "broadcast": GossipBroadcastSystem,
    "multicast": GossipMulticastSystem,
    "naive": NaivePublisherSystem,
    "hierarchical": lambda **kwargs: HierarchicalGossipSystem(n_clusters=3, **kwargs),
}


def object_system(facade, sizes=(4, 20), extra=None, **kwargs):
    """A finalized two-group system of ``facade`` (after an ``extra``
    group of 3, if named), with its finalize."""
    system = OBJECT_FACADES[facade](**kwargs)
    if extra is not None:
        system.add_group(extra, 3)
    system.add_group(T1, sizes[0])
    system.add_group(T2, sizes[1])
    if facade == "dag":  # .t1.t2 also filed under .news (§VIII)
        system.add_group(NEWS, 3)
        system.link(T2, NEWS)
    system.finalize_static_membership()
    return system, system.finalize_static_membership


def static_system(sizes=(4, 20), **kwargs):
    return object_system("damulticast", sizes, **kwargs)[0]


#: the facades of the one static build
STATIC_FACADES = list(OBJECT_FACADES)
#: the facades whose build draws a table per linked supertopic (§VIII)
LINKING_FACADES = ["damulticast", "dag", "columnar"]


# ----------------------------------------------------------------------
# A static membership: one pid block per group, fixed by the finalize
# ----------------------------------------------------------------------
class TestStaticMembershipIsFixed:
    @pytest.mark.parametrize("grow", ["add_process", "add_group"])
    @pytest.mark.parametrize("facade", STATIC_FACADES)
    def test_adding_to_an_earlier_topic_is_refused(self, facade, grow):
        system = OBJECT_FACADES[facade](seed=3)
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
        refusal = r"cannot change \.t1\.t2: finalize"
        if change == "link" and facade not in LINKING_FACADES:
            refusal = "cannot honour a link"  # a baseline refuses every link
        with pytest.raises(ConfigError, match=refusal):
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


@pytest.mark.parametrize("facade", STATIC_FACADES)
def test_a_process_publishes_events_of_its_own_topic_only(facade):
    system, _ = object_system(facade, seed=1)
    outsider = system.group(T1)[0]
    with pytest.raises(ConfigError, match=r"\.t1 events, not \.t1\.t2"):
        system.publish(T2, publisher=outsider)
    assert system.stats.total_sent == 0
    event = system.publish(T1, publisher=outsider)
    assert event.topic == T1


@pytest.mark.parametrize("facade", STATIC_FACADES)
def test_a_member_of_another_system_cannot_publish(facade):
    system, _ = object_system(facade, seed=1)
    # the other system's pids are shifted past this one's blocks
    other, _ = object_system(facade, extra=".x", seed=2)
    foreign = other.group(T2)[-1]
    with pytest.raises(ConfigError, match="not a member of this system"):
        system.publish(T2, publisher=foreign)
    for refused in (system, other):
        assert refused.tracker.events == []
        assert refused.stats.total_sent == 0


def test_a_dynamic_member_of_another_system_cannot_publish():
    system = DaMulticastSystem(mode="dynamic", seed=0)
    other = DaMulticastSystem(mode="dynamic", seed=1)
    system.add_group(T2, 3)
    other.add_group(T2, 3)
    sent = other.stats.total_sent
    with pytest.raises(ConfigError, match="not a member of this system"):
        system.publish(T2, publisher=other.group(T2)[0])
    assert system.tracker.events == [] and other.tracker.events == []
    assert other.stats.total_sent == sent


def test_a_static_member_takes_no_subscribe_option():
    system = DaMulticastSystem(mode="static")
    with pytest.raises(ConfigError, match="subscribe=False needs mode='dynamic'"):
        system.add_group(T2, 5, subscribe=False)
    assert system.processes == []


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
        # 1 per process — its ``StaticMember`` record — plus about 55 per
        # system: measured 1 165 (4 489 while each process was an object
        # with its own ``seen`` set, ``groups`` dict and ``GroupState``,
        # 5 602 with a ``delivered`` list besides, 8 929 while each table
        # was a view of descriptors). The table is a row of the one global
        # group's pid column, the dedup state a byte of the one actor's
        # per-event bitmask, and the RNG stream waits in its row list.
        assert added <= 1_250, added
        built.system.close()
