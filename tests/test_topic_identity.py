"""One ``Topic`` per path: equality is identity, and nothing depends on it.

Every way of obtaining a topic — construction, parsing, navigation,
pickling, copying, a pool worker's return value — yields the one live
instance of its path, so ``Topic`` keeps ``object``'s ``__eq__`` and
``__hash__`` (both in C). The interning table holds topics weakly and is
filled under a lock: concurrent parses of a new path agree, and a topic no
one references is collected. Identity hashes differ from run to run even
under one ``PYTHONHASHSEED``, so the last class runs two presets twice in
one interpreter, with the second run's topics at other addresses, and
requires identical digests. (The presets' chain prefix is renamed to one
no other test uses, so that no cached compile of the stock preset keeps
the first run's topics alive.)
"""

import copy
import gc
import pickle
import sys
import threading
import weakref

import pytest

from repro.errors import InvalidTopicName
from repro.experiments.executor import SweepCell, parse_executor_spec
from repro.topics import topic as topic_module
from repro.topics.topic import ROOT, Topic
from repro.workloads.presets import load_preset
from repro.workloads.spec import compile_spec, metrics_digest, spec_with


def _parse_in_worker(name, seed):
    return Topic.parse(name)


class TestOneObjectPerPath:
    def test_construction_and_navigation_return_the_interned_topic(self):
        leaf = Topic.parse(".ident.a.b")
        middle = Topic.parse(".ident.a")
        assert Topic(("ident", "a", "b")) is leaf
        assert Topic(["ident", "a", "b"]) is leaf
        assert Topic.parse("ident.a.b") is leaf
        assert middle.child("b") is leaf
        assert leaf.super_topic is middle
        assert list(leaf.ancestors(include_self=True)) == [
            leaf, middle, Topic.parse(".ident"), ROOT
        ]
        for mine, parsed in zip(
            leaf.ancestors(), [".ident.a", ".ident", "."]
        ):
            assert mine is Topic.parse(parsed)
        assert Topic.parse(".") is ROOT and Topic(()) is ROOT

    def test_pickle_and_copy_return_the_interned_topic(self):
        leaf = Topic.parse(".ident.pickled")
        assert pickle.loads(pickle.dumps(leaf)) is leaf
        assert pickle.loads(pickle.dumps([leaf, ROOT])) == [leaf, ROOT]
        assert copy.copy(leaf) is leaf
        assert copy.deepcopy(leaf) is leaf
        assert copy.deepcopy({leaf: [leaf]}) == {leaf: [leaf]}

    def test_equality_and_hash_are_objects(self):
        assert Topic.__hash__ is object.__hash__
        assert Topic.__eq__ is object.__eq__
        assert "__eq__" not in Topic.__dict__
        assert "__hash__" not in Topic.__dict__
        assert "_hash" not in Topic.__slots__

    def test_ordering_still_sorts_by_path(self):
        a, ab, b = (Topic.parse(n) for n in (".ord.a", ".ord.a.b", ".ord.b"))
        assert sorted([b, ab, a, ROOT]) == [ROOT, a, ab, b]
        assert a <= a and a <= ab and b >= ab and not b < a

    def test_a_topic_is_never_equal_to_its_name(self):
        assert (Topic.parse(".a") == ".a") is False
        assert Topic.parse(".a") != ".a"

    def test_invalid_names_still_raise(self):
        with pytest.raises(InvalidTopicName):
            Topic.parse(["x"])
        with pytest.raises(InvalidTopicName):
            Topic.parse(".a..b")
        with pytest.raises(InvalidTopicName):
            Topic(("ok", "not ok"))
        # a rejected path leaves nothing behind in the table
        assert ("ok", "not ok") not in topic_module._INTERNED


class TestInterningTable:
    @pytest.mark.parametrize("round_", range(5))
    def test_concurrent_parses_of_fresh_names_agree(self, round_):
        names = [f".threaded.r{round_}.n{i}" for i in range(1_000)]
        start = threading.Barrier(8)
        results: list[list[Topic]] = [[] for _ in range(8)]

        def parse_all(slot: int) -> None:
            start.wait(timeout=30)
            results[slot] = [Topic.parse(name) for name in names]

        threads = [
            threading.Thread(target=parse_all, args=(slot,)) for slot in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-parse
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for index, name in enumerate(names):
            first = results[0][index]
            assert first.name == name
            assert all(result[index] is first for result in results)

    def test_an_unreferenced_topic_is_collected_and_reinterned(self):
        ref = weakref.ref(Topic.parse(".collected.once"))
        gc.collect()
        assert ref() is None
        again = Topic.parse(".collected.once")
        assert Topic(("collected", "once")) is again
        assert Topic.parse(".collected").child("once") is again

    def test_the_table_does_not_grow_with_dropped_names(self):
        before = len(topic_module._INTERNED)
        for i in range(5_000):
            Topic.parse(f".throwaway.t{i}")
        gc.collect()
        assert len(topic_module._INTERNED) == before

    def test_a_topic_from_a_pool_worker_is_the_parents_object(self):
        held = Topic.parse(".pool.held")
        cells = [
            SweepCell(arg=name, seed_name=f"topic/{name}")
            for name in (".pool.held", ".pool.fresh")
        ]
        executor = parse_executor_spec("pool:2")
        try:
            returned = executor.map_cells(_parse_in_worker, cells)
        finally:
            executor.close()
        assert returned[0] is held
        assert returned[1] is Topic.parse(".pool.fresh")


def _run(spec: dict) -> tuple[str, dict[str, int], list[weakref.ref]]:
    """``spec`` at seed 0 on a fresh compile: its metrics digest, and the
    address of and a weak reference to each non-root topic it used."""
    compiled = compile_spec(spec)
    built = compiled.build(0)
    try:
        digest = metrics_digest(built.execute())
    finally:
        built.system.close()
    topics = [topic for topic in compiled.ordered_topics if topic is not ROOT]
    return (
        digest,
        {topic.name: id(topic) for topic in topics},
        [weakref.ref(topic) for topic in topics],
    )


class TestDigestsUnderIdentityHashing:
    @pytest.mark.parametrize("name", ["paper-vii", "lossy-wan"])
    def test_second_run_at_other_addresses_digests_alike(self, name):
        spec = spec_with(load_preset(name), "topics.prefix", "identityhash")
        first, first_addresses, first_topics = _run(spec)
        gc.collect()
        assert all(ref() is None for ref in first_topics)
        # a few thousand topics take the freed memory; half stay alive
        # through the second run, so its topics sit at other addresses
        junk = [Topic.parse(f".junk.j{i}") for i in range(4_000)]
        del junk[::2]
        second, second_addresses, _ = _run(spec)
        del junk
        assert first_addresses.keys() == second_addresses.keys()
        assert first_addresses != second_addresses
        assert first == second
