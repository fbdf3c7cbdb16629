"""§VIII, multiple supertopics: the one static build over a topic graph.

A topic linked under a second supertopic (``system.link``) gets one
supertopic table per direct supertopic; dissemination hands an event up
once per table, deduplication (Fig. 5) keeps the diamond from
double-delivering, and inclusion — so the no-parasite check and the
expected-receiver count — follows the links. Both static hosts serve it;
the dynamic protocol and the baselines refuse a link.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.baselines import (
    GossipBroadcastSystem,
    GossipMulticastSystem,
    HierarchicalGossipSystem,
    NaivePublisherSystem,
)
from repro.core import DaMulticastSystem
from repro.core.columnar import ColumnarStaticSystem
from repro.errors import ConfigError, HierarchyError, ProtocolError, UnknownTopic
from repro.net.message import EventMessage, Scope
from repro.topics import ROOT, Topic
from repro.topics.builders import balanced_tree, chain
from tests.test_examples import run_example

NEWS = Topic.parse(".news")
SPORTS = Topic.parse(".sports")
FOOTBALL = Topic.parse(".sports.football")

#: the diamond: football is filed under .sports (its path) and .news (linked)
DIAMOND = {ROOT: 4, NEWS: 10, SPORTS: 10, FOOTBALL: 30}


def build_system(seed=0, sizes=DIAMOND, **kwargs):
    system = DaMulticastSystem(mode="static", seed=seed, **kwargs)
    for topic, count in sizes.items():
        system.add_group(topic, count)
    system.link(FOOTBALL, NEWS)
    system.finalize_static_membership()
    return system


def row_of(system, member):
    """``member``'s group columns and its row in them."""
    actor = system.group_actor(member.topic)
    return actor.tables, member.pid - actor.base


def super_rows(system, member):
    tables, row = row_of(system, member)
    return tables.super_rows_of(row)


def targets(system, member):
    return [target for target, _ in super_rows(system, member)]


class TestStructure:
    def test_one_super_table_per_parent(self):
        system = build_system()
        for process in system.group(FOOTBALL):
            assert targets(system, process) == [NEWS, SPORTS]
        for process in system.group(SPORTS):
            assert targets(system, process) == [ROOT]
        for process in system.group(ROOT):
            assert targets(system, process) == []

    def test_tables_point_at_right_groups(self):
        system = build_system()
        z = system.config.params_for(FOOTBALL).z
        for process in system.group(FOOTBALL):
            for target, pids in super_rows(system, process):
                assert len(pids) == z
                assert set(pids) <= set(system.group_pids(target))

    def test_unpopulated_parent_falls_back_upward(self):
        system = build_system(seed=1, sizes={ROOT: 4, NEWS: 10, FOOTBALL: 20})
        for process in system.group(FOOTBALL):
            # parents_of order: the .news-side table, then the .sports
            # side, which walks up to the root group
            assert targets(system, process) == [NEWS, ROOT]

    def test_link_needs_registered_topics(self):
        system = DaMulticastSystem(mode="static")
        system.add_group(FOOTBALL, 3)
        with pytest.raises(UnknownTopic):
            system.link(FOOTBALL, ".unregistered")

    def test_link_refuses_a_cycle(self):
        system = DaMulticastSystem(mode="static")
        system.add_group(FOOTBALL, 3)
        system.add_group(NEWS, 3)
        system.link(FOOTBALL, NEWS)
        with pytest.raises(HierarchyError):
            system.link(NEWS, FOOTBALL)

    def test_add_group_validation(self):
        system = DaMulticastSystem(mode="static")
        with pytest.raises(ConfigError):
            system.add_group(NEWS, 0)

    def test_publish_requires_finalize(self):
        system = DaMulticastSystem(mode="static")
        system.add_group(FOOTBALL, 5)
        system.add_group(NEWS, 5)
        system.link(FOOTBALL, NEWS)
        with pytest.raises(ConfigError):
            system.publish(FOOTBALL)

    @pytest.mark.parametrize(
        "make",
        [lambda: DaMulticastSystem(mode="static"), ColumnarStaticSystem],
        ids=["object", "columnar"],
    )
    def test_a_link_after_finalize_is_refused(self, make):
        system = make()
        system.add_group(FOOTBALL, 5)
        system.add_group(NEWS, 5)
        system.finalize_static_membership()
        with pytest.raises(ConfigError, match=r"\.sports\.football: finalize"):
            system.link(FOOTBALL, NEWS)
        assert system.hierarchy.parents_of(FOOTBALL) == [SPORTS]


@pytest.mark.parametrize(
    "make",
    [
        lambda: DaMulticastSystem(mode="dynamic"),
        GossipBroadcastSystem,
        GossipMulticastSystem,
        NaivePublisherSystem,
        lambda: HierarchicalGossipSystem(n_clusters=2),
    ],
    ids=["dynamic", "broadcast", "multicast", "naive", "hierarchical"],
)
def test_a_system_that_cannot_honour_a_link_refuses_it(make):
    system = make()
    system.add_group(FOOTBALL, 3)
    system.add_group(NEWS, 3)
    with pytest.raises(ConfigError, match="cannot honour a link"):
        system.link(FOOTBALL, NEWS)
    assert system.hierarchy.parents_of(FOOTBALL) == [SPORTS]


class TestDissemination:
    def test_event_reaches_both_parent_groups(self):
        system = build_system(seed=2)
        event = system.publish(FOOTBALL)
        system.run_until_idle()
        assert system.delivered_fraction(event, FOOTBALL) == 1.0
        assert system.delivered_fraction(event, SPORTS) == 1.0
        assert system.delivered_fraction(event, NEWS) == 1.0
        assert system.delivered_fraction(event, ROOT) == 1.0
        # every member of every including group is an intended receiver
        assert system.tracker.expected(event.event_id) == sum(DIAMOND.values())

    def test_diamond_paths_deliver_once(self):
        deliveries = []
        system = build_system(
            seed=3,
            delivery_callback=lambda process, event: deliveries.append(
                (process.pid, event.event_id)
            ),
        )
        event = system.publish(FOOTBALL)
        system.run_until_idle()
        # Root is reachable via both .sports and .news; dedup must keep
        # deliveries unique.
        assert len(deliveries) == len(set(deliveries))
        assert len(deliveries) == system.tracker.delivery_count(event.event_id)
        assert {pid for pid, _ in deliveries} >= set(system.group_pids(ROOT))

    def test_sibling_parent_events_stay_separate(self):
        system = build_system(seed=4)
        event = system.publish(NEWS)
        system.run_until_idle()
        # .news events are NOT .sports events nor .sports.football events.
        assert system.delivered_fraction(event, SPORTS) == 0.0
        assert system.delivered_fraction(event, FOOTBALL) == 0.0
        assert system.delivered_fraction(event, ROOT) == 1.0
        assert system.tracker.expected(event.event_id) == DIAMOND[NEWS] + DIAMOND[ROOT]

    def test_inter_group_edges_cover_both_parents(self):
        system = build_system(seed=5)
        system.publish(FOOTBALL)
        system.run_until_idle()
        stats = system.stats
        assert stats.events_sent_between(FOOTBALL, SPORTS) >= 1
        assert stats.events_sent_between(FOOTBALL, NEWS) >= 1

    def test_dag_interest_check(self):
        system = build_system()
        football_proc = system.group(FOOTBALL)[0]
        news_proc = system.group(NEWS)[0]
        sports_proc = system.group(SPORTS)[0]
        event = system.publish(FOOTBALL, publisher=football_proc)
        # via the extra DAG edge
        assert system.hierarchy.includes(news_proc.topic, event.topic)
        system.run_until_idle()
        assert news_proc.pid in system.tracker.receivers(event.event_id)
        bulletin = system.publish(NEWS, publisher=news_proc)
        assert not system.hierarchy.includes(sports_proc.topic, bulletin.topic)
        stray = EventMessage(news_proc.pid, bulletin, Scope("intra", SPORTS), 1)
        with pytest.raises(ProtocolError, match="parasite delivery"):
            system.group_actor(SPORTS).handle_batch(
                news_proc.pid, (sports_proc.pid,), stray
            )
        system.run_until_idle()

    def test_memory_footprint_counts_all_tables(self):
        system = build_system()
        for process in system.group(FOOTBALL):
            # topic table + two z-sized super tables
            tables, row = row_of(system, process)
            supers = tables.super_rows_of(row)
            expected_super = sum(len(pids) for _, pids in supers)
            assert process.memory_footprint == len(
                tables.row_pids(row)
            ) + expected_super
            assert len(supers) == 2 and expected_super >= 2


# ----------------------------------------------------------------------
# The columnar host over the diamond
# ----------------------------------------------------------------------
def columnar_diamond(seed):
    system = ColumnarStaticSystem(seed=seed, tracker="full")
    blocks = {
        topic: [member.pid for member in system.add_group(topic, count)]
        for topic, count in DIAMOND.items()
    }
    system.link(FOOTBALL, NEWS)
    system.finalize_static_membership()
    calls = Counter()
    record = system.tracker.record_delivery

    def counting(pid, event, time, hops=None):
        calls[pid] += 1
        record(pid, event, time, hops)

    system.tracker.record_delivery = counting
    return system, blocks, calls


class TestColumnarDiamond:
    @pytest.mark.parametrize("seed", [2, 5])
    def test_both_parents_reached_and_the_root_delivered_once(self, seed):
        system, blocks, calls = columnar_diamond(seed)
        actor = system.group_actor(FOOTBALL)
        assert [block.target for block in actor.tables.supers] == [NEWS, SPORTS]
        event = system.publish(FOOTBALL)
        system.run_until_idle()
        receivers = system.tracker.receivers(event.event_id)
        for topic in (FOOTBALL, SPORTS, NEWS, ROOT):
            assert set(blocks[topic]) <= set(receivers), topic.name
        assert system.stats.events_sent_between(FOOTBALL, NEWS) >= 1
        assert system.stats.events_sent_between(FOOTBALL, SPORTS) >= 1
        # reached along both sides of the diamond, delivered once each
        assert all(calls[pid] == 1 for pid in blocks[ROOT])
        assert sum(calls.values()) == len(receivers) == sum(DIAMOND.values())
        assert system.tracker.expected(event.event_id) == sum(DIAMOND.values())

    def test_news_events_stay_out_of_sports(self):
        system, blocks, calls = columnar_diamond(4)
        event = system.publish(NEWS)
        system.run_until_idle()
        receivers = set(system.tracker.receivers(event.event_id))
        assert receivers == set(blocks[NEWS]) | set(blocks[ROOT])
        assert system.tracker.expected(event.event_id) == DIAMOND[NEWS] + DIAMOND[ROOT]


# ----------------------------------------------------------------------
# §VIII pins: what MultiParentSystem — the parallel subclass pair this
# build replaced — drew and flooded, recorded from it and held here
# unrecorded. The chain and tree cases are the single-parent conformance
# it was held to (one supertopic per topic: §VIII *is* §V): on a tree the
# static system must still draw and flood exactly what it did.
# ----------------------------------------------------------------------
def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _rows(system, process):
    tables, row = row_of(system, process)
    return (
        tables.row_pids(row),
        [(t.name, pids) for t, pids in tables.super_rows_of(row)],
    )


def _pins(system, events) -> dict:
    tracker = system.tracker
    rngs = system.harness.rngs
    return {
        "rows": _sha([
            (p.pid, p.topic.name, _rows(system, p), p.memory_footprint)
            for p in system.processes
        ]),
        "receivers": _sha([sorted(tracker.receivers(e.event_id)) for e in events]),
        "hops": _sha([
            sorted(tracker.delivery_hops(e.event_id).items()) for e in events
        ]),
        "expected": [tracker.expected(e.event_id) for e in events],
        "stats": _sha(json.dumps(system.stats.as_dict(), sort_keys=True)),
        "streams": _sha([
            (name, rngs.stream(name).getstate()) for name in sorted(rngs._streams)
        ]),
    }


def _chain_population():
    return dict(zip(chain(3), (4, 12, 30, 60)))


def _tree_population():
    # a balanced binary tree with one level left unpopulated on one side,
    # so a supertopic table has to climb past an empty parent
    topics = balanced_tree(2, 2).topics
    sizes = {topic: 6 + 7 * index for index, topic in enumerate(topics)}
    sizes.pop(Topic.parse(".s1"))
    return sizes


#: case -> (population, links, seed, published topics)
PIN_CASES = {
    "diamond-2": (lambda: DIAMOND, [(FOOTBALL, NEWS)], 2, (FOOTBALL, NEWS)),
    "diamond-5": (lambda: DIAMOND, [(FOOTBALL, NEWS)], 5, (FOOTBALL, NEWS)),
    "unpopulated-sports-1": (
        lambda: {ROOT: 4, NEWS: 10, FOOTBALL: 20},
        [(FOOTBALL, NEWS)],
        1,
        (FOOTBALL, NEWS),
    ),
    "chain-0": (_chain_population, [], 0, None),
    "chain-7": (_chain_population, [], 7, None),
    "tree-0": (_tree_population, [], 0, None),
    "tree-7": (_tree_population, [], 7, None),
}

#: recorded from MultiParentSystem(p_success=0.85) at the parent commit
PINS = {
    "chain-0": {
        "expected": [106],
        "hops": "ec494cc0054c5db3092da62e33819465d36ebcdc7051d00b0777ff307420fe83",
        "receivers": "9c4b5befa26632bdb28b25d70716ec49be7ab50541ebe9f64f310346df9cf669",
        "rows": "efe03084a467106ce02454679f9715a5a94c14990b5a19de808143f4aff47e1e",
        "stats": "6b565b44444fce97e092527a22f99d9407ae89972ae40f448f9f790792b46887",
        "streams": "d024b47536479f8f06cbbfb4f445455b4ebd8ef4a130b060900fff3d15f0b811",
    },
    "chain-7": {
        "expected": [106],
        "hops": "cc9c3fc9be675e5da47bf596616ab44514903da86010ab63c3346598242fee47",
        "receivers": "9c4b5befa26632bdb28b25d70716ec49be7ab50541ebe9f64f310346df9cf669",
        "rows": "c770770a2ef6a8554eaeab07fe1e6164845c93ba759051ecdddbeaac6c2a5523",
        "stats": "f4b5e6f185b1a818872e5e704807417ae3b3b933c7d805864e914c1796cfacd5",
        "streams": "f60ebbe6f2c69bbb28e15fabdfecf0e478c34a7c6f3124580ff0b775f3176b67",
    },
    "diamond-2": {
        "expected": [54, 14],
        "hops": "2e36822900bd001269af526d2516b0792c6e08863d2941cf279c79aa685a3810",
        "receivers": "e0ece0cc018e85e7bb8c27b576750ef2618dea11c2a35e7a6bfeb5555a8e58e9",
        "rows": "e29a94874d684ba410993310e1cd02c32e3a7eee08d31c03dffbc2130a282b72",
        "stats": "f8841eed9e3248943896cf05ce6346df68636c57813720723a89aa4181ea8ee5",
        "streams": "5ddee3b7e25ce45c64d28884507ccf440f6a6f9770ec2af49fc2b1e20516f856",
    },
    "diamond-5": {
        "expected": [54, 14],
        "hops": "2b63e36fde100914a6aeb7432b3c37d4d4368219004f443ee7cd1a9c5d7c15ec",
        "receivers": "e0ece0cc018e85e7bb8c27b576750ef2618dea11c2a35e7a6bfeb5555a8e58e9",
        "rows": "404fc690c4b2317d3c3d913865d6788106c8b7b2e091e598b0e61e96dc221278",
        "stats": "29a66fb62c64976dbec655fd0746dbaacdb90b8a38901e3399b148629ae0da7b",
        "streams": "b9a264faffd12c593777c00e6318a3779b36bd66f12f3bcd4b25b540893dbdcd",
    },
    "tree-0": {
        "expected": [39],
        "hops": "681f79c4f0972a3ac7025b935fbf88ea57588e43dffb48e26a33d03ddc8558a7",
        "receivers": "f1987897692b846c412a25f6f72af4f7887461586f5c8ca1ee0d57a783fa1f09",
        "rows": "c199b981c825788f8d39948fa408fb74c4d269e9212363e07efbca370af635de",
        "stats": "4b2516836e71911baa5d3454c02a7de69e6adf08ec35e044b08e525c92d70cf6",
        "streams": "6f7e3903ed29aeb47f62f00dbd447a4af9b78ebfe8fa816560c872d145d2840b",
    },
    "tree-7": {
        "expected": [39],
        "hops": "f125aa98a9c37c5fe7b49a1b0b50062e9abdceb9c002669072c8e71c463ea24f",
        "receivers": "f1987897692b846c412a25f6f72af4f7887461586f5c8ca1ee0d57a783fa1f09",
        "rows": "2b39b7a6ffd0cfbfdfb05998085c47ff0a10995f9997889f1f6028d5bc932426",
        "stats": "12b5403ff0638058b264cc18e2db9824b7b600a1ef27431c5fb1fff8910221b3",
        "streams": "5c102393cce1b877d781f153dbc454f7201b42d680b9c644920ac9d94fcb2534",
    },
    "unpopulated-sports-1": {
        "expected": [34, 14],
        "hops": "db4f27894d6c1f4ca6b2c9c6f39502369b935a3963605ac816c6ff17b97faa20",
        "receivers": "b9eff07cb7be6e60edc1ddda8d3d08c3afb7ed8636cbc4b616cc65fd4bd07e02",
        "rows": "eeebde7bc9983d8947d3a2bc9d273d297e1bacea5cdfc8341e85fb120f56648f",
        "stats": "19bbd3bf526428a4fa3b16b9b178c03a51d8e726d972af39f048cf9e611a12a6",
        "streams": "3e75510a40a215f5dab2208df0018e4c79e491611f9351269b5755d9a8477f6f",
    },
}

#: examples/multi_inheritance.py's stdout, recorded from MultiParentSystem
EXAMPLE_STDOUT = """\
supertopic tables of one .sports.football process:
  parent .news     -> 3 contacts in .news
  parent .sports   -> 3 contacts in .sports
  membership state: 23 entries (topic table + one table per parent)

match report published on .sports.football:
  .sports.football   delivery 100.0%
  .sports            delivery 100.0%
  .news              delivery 100.0%
  .                  delivery 100.0%
  5 of 5 root processes delivered it once each; copies sent up: 2 from .sports and 8 from .news (diamond deduplicated)

election bulletin published on .news:
  .news              delivery 100.0%
  .                  delivery 100.0%
  .sports            delivery   0.0%
  .sports.football   delivery   0.0%
  (.sports and .football stay clean — no parasite deliveries)
"""


class TestSectionVIIIPins:
    @pytest.mark.parametrize("case", sorted(PIN_CASES))
    def test_draws_and_floods_hold(self, case):
        population, links, seed, published = PIN_CASES[case]
        sizes = population()
        system = DaMulticastSystem(mode="static", seed=seed, p_success=0.85)
        for topic, count in sizes.items():
            system.add_group(topic, count)
        for child, parent in links:
            system.link(child, parent)
        system.finalize_static_membership()
        events = []
        for topic in published or (max(sizes, key=lambda t: t.depth),):
            events.append(system.publish(topic))
            system.run_until_idle()
        assert system.stats.total_dropped > 0  # p_success = 0.85 loses some
        assert _pins(system, events) == PINS[case]

    def test_example_prints_the_recorded_bytes(self, capsys):
        assert run_example("multi_inheritance", capsys) == EXAMPLE_STDOUT
