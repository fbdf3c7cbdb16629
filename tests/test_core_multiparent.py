"""Tests for the §VIII multiple-supertopics extension."""

import pytest

from repro.core import DaMulticastSystem
from repro.core.multiparent import MultiParentSystem
from repro.errors import ConfigError, UnknownTopic
from repro.topics import ROOT, Topic, TopicDag
from repro.topics.builders import balanced_tree, chain

NEWS = Topic.parse(".news")
SPORTS = Topic.parse(".sports")
FOOTBALL = Topic.parse(".sports.football")


def diamond_dag() -> TopicDag:
    """football has two supertopics: .sports (path) and .news (linked)."""
    dag = TopicDag()
    dag.add(FOOTBALL)
    dag.add(NEWS)
    dag.link(FOOTBALL, NEWS)
    return dag


def build_system(seed=0, **kwargs):
    system = MultiParentSystem(diamond_dag(), seed=seed, **kwargs)
    system.add_group(ROOT, 4)
    system.add_group(NEWS, 10)
    system.add_group(SPORTS, 10)
    system.add_group(FOOTBALL, 30)
    system.finalize_static_membership()
    return system


class TestStructure:
    def test_one_super_table_per_parent(self):
        system = build_system()
        for process in system.group(FOOTBALL):
            assert set(process.super_tables) == {SPORTS, NEWS}
        for process in system.group(SPORTS):
            assert set(process.super_tables) == {ROOT}
        for process in system.group(ROOT):
            assert process.super_tables == {}

    def test_tables_point_at_right_groups(self):
        system = build_system()
        for process in system.group(FOOTBALL):
            assert process.super_tables[SPORTS].target_topic == SPORTS
            assert process.super_tables[NEWS].target_topic == NEWS

    def test_unpopulated_parent_falls_back_upward(self):
        dag = diamond_dag()
        system = MultiParentSystem(dag, seed=1)
        system.add_group(ROOT, 4)
        system.add_group(NEWS, 10)
        system.add_group(FOOTBALL, 20)  # .sports has no subscribers
        system.finalize_static_membership()
        for process in system.group(FOOTBALL):
            # The .sports-side table walks up to the root group.
            assert process.super_tables[SPORTS].target_topic == ROOT
            assert process.super_tables[NEWS].target_topic == NEWS

    def test_unknown_topic_rejected(self):
        system = MultiParentSystem(diamond_dag())
        with pytest.raises(UnknownTopic):
            system.add_process(".unregistered")

    def test_add_group_validation(self):
        system = MultiParentSystem(diamond_dag())
        with pytest.raises(ConfigError):
            system.add_group(NEWS, 0)

    def test_publish_requires_finalize(self):
        system = MultiParentSystem(diamond_dag())
        system.add_group(FOOTBALL, 5)
        with pytest.raises(ConfigError):
            system.publish(FOOTBALL)


class TestDissemination:
    def test_event_reaches_both_parent_groups(self):
        system = build_system(seed=2)
        event = system.publish(FOOTBALL)
        system.run_until_idle()
        assert system.delivered_fraction(event, FOOTBALL) == 1.0
        assert system.delivered_fraction(event, SPORTS) == 1.0
        assert system.delivered_fraction(event, NEWS) == 1.0
        assert system.delivered_fraction(event, ROOT) == 1.0

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
        event = football_proc.publish()
        assert news_proc.interested_in(event)  # via the extra DAG edge
        system.run_until_idle()

    def test_memory_footprint_counts_all_tables(self):
        system = build_system()
        for process in system.group(FOOTBALL):
            # topic table + two z-sized super tables
            expected_super = sum(
                len(t) for t in process.super_tables.values()
            )
            assert process.memory_footprint == len(
                process.tables.row_pids(process.row)
            ) + expected_super
            assert expected_super >= 2


# ----------------------------------------------------------------------
# §VIII with one supertopic per topic IS §V: over a DAG without extra
# links the multi-parent system is the static system, bit for bit
# ----------------------------------------------------------------------
def _chain_population():
    topics = chain(3)
    return dict(zip(topics, (4, 12, 30, 60)))


def _tree_population():
    # a balanced binary tree with one level left unpopulated on one side,
    # so a supertopic table has to climb past an empty parent
    topics = balanced_tree(2, 2).topics
    sizes = {topic: 6 + 7 * index for index, topic in enumerate(topics)}
    sizes.pop(Topic.parse(".s1"))
    return sizes


def _stream_states(system):
    rngs = system.harness.rngs
    return {name: rngs.stream(name).getstate() for name in sorted(rngs._streams)}


@pytest.mark.parametrize(
    "population", [_chain_population, _tree_population], ids=["chain", "tree"]
)
@pytest.mark.parametrize("seed", [0, 7])
class TestSingleParentConformance:
    @pytest.fixture
    def systems(self, population, seed):
        sizes = population()
        dag = TopicDag()
        for topic in sizes:
            dag.add(topic)
        pair = (
            DaMulticastSystem(mode="static", seed=seed, p_success=0.85),
            MultiParentSystem(dag, seed=seed, p_success=0.85),
        )
        for system in pair:
            for topic, count in sizes.items():
                system.add_group(topic, count)
            system.finalize_static_membership()
        return pair, max(sizes, key=lambda topic: topic.depth)

    def test_same_tables(self, systems):
        (static, multi), _ = systems
        for ours, theirs in zip(static.processes, multi.processes):
            assert theirs.pid == ours.pid and theirs.topic == ours.topic
            assert theirs.tables.row_pids(theirs.row) == ours.tables.row_pids(
                ours.row
            )
            ours_super = ours.tables.super_row_pids(ours.row)
            supers = list(theirs.super_tables.values())
            assert len(supers) == (1 if ours_super else 0)
            for table in supers:
                assert table.pids == ours_super
                assert table.target_topic == ours.tables.super_topic
            assert theirs.memory_footprint == ours.memory_footprint
        assert _stream_states(multi) == _stream_states(static)

    def test_same_flood(self, systems):
        (static, multi), leaf = systems
        events = [system.publish(leaf, "e") for system in (static, multi)]
        for system in (static, multi):
            system.run_until_idle()
        assert events[0] == events[1]
        assert multi.stats.as_dict() == static.stats.as_dict()
        event_id = events[0].event_id
        for query in ("receivers", "delivery_hops", "expected"):
            assert getattr(multi.tracker, query)(event_id) == getattr(
                static.tracker, query
            )(event_id), query
        # p_success = 0.85 loses messages: the floods agree on which
        assert static.stats.total_dropped > 0
        assert sorted(multi.harness.rngs._streams) == sorted(
            static.harness.rngs._streams
        )
        assert _stream_states(multi) == _stream_states(static)
