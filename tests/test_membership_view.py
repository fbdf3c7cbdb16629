"""Unit tests for PartialView and ProcessDescriptor."""

import random

import pytest

from repro.errors import ConfigError, MembershipError
from repro.membership import PartialView, ProcessDescriptor
from repro.topics import Topic

T = Topic.parse(".t")


def desc(pid: int) -> ProcessDescriptor:
    return ProcessDescriptor(pid, T)


class TestAdd:
    def test_add_and_contains(self):
        view = PartialView(4)
        assert view.add(desc(1))
        assert 1 in view
        assert len(view) == 1

    def test_duplicate_add_is_noop(self):
        view = PartialView(4)
        view.add(desc(1))
        view.add(desc(1))
        assert len(view) == 1

    def test_overflow_evicts_uniformly(self):
        rng = random.Random(0)
        view = PartialView(3)
        for pid in range(10):
            view.add(desc(pid), rng)
        assert len(view) == 3

    def test_overflow_without_rng_raises(self):
        view = PartialView(1)
        view.add(desc(1))
        with pytest.raises(MembershipError):
            view.add(desc(2))

    def test_add_returns_false_if_self_evicted(self):
        # With capacity 1, adding repeatedly: sometimes the newcomer itself
        # is evicted. Exercise both outcomes over many trials.
        rng = random.Random(1)
        outcomes = set()
        for trial in range(50):
            view = PartialView(1)
            view.add(desc(0), rng)
            outcomes.add(view.add(desc(trial + 1), rng))
        assert outcomes == {True, False}

    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            PartialView(0)


class TestMergeRemove:
    def test_merge_counts_new(self):
        view = PartialView(10)
        view.add(desc(1))
        added = view.merge([desc(1), desc(2), desc(3)])
        assert added == 2
        assert len(view) == 3

    def test_remove(self):
        view = PartialView(4)
        view.add(desc(1))
        assert view.remove(1)
        assert not view.remove(1)
        assert 1 not in view

    def test_replace_drops_stale_and_fills(self):
        view = PartialView(3)
        for pid in (1, 2, 3):
            view.add(desc(pid))
        admitted = view.replace([1, 2], [desc(10), desc(11), desc(12)])
        assert admitted == 2  # only freed capacity is filled
        assert 3 in view  # favorite kept
        assert len(view) == 3

    def test_replace_does_not_duplicate(self):
        view = PartialView(3)
        view.add(desc(1))
        admitted = view.replace([], [desc(1), desc(2)])
        assert admitted == 1

    def test_clear(self):
        view = PartialView(3)
        view.add(desc(1))
        view.clear()
        assert len(view) == 0

    def test_set_capacity_grow_keeps_entries(self):
        view = PartialView(2)
        view.add(desc(1))
        view.add(desc(2))
        view.set_capacity(5)
        assert view.capacity == 5
        assert sorted(view.pids) == [1, 2]

    def test_set_capacity_shrink_evicts(self):
        rng = random.Random(0)
        view = PartialView(5)
        for pid in range(5):
            view.add(desc(pid))
        view.set_capacity(2, rng)
        assert view.capacity == 2
        assert len(view) == 2

    def test_set_capacity_shrink_without_rng_raises(self):
        view = PartialView(3)
        for pid in range(3):
            view.add(desc(pid))
        with pytest.raises(MembershipError):
            view.set_capacity(1)

    def test_set_capacity_validation(self):
        with pytest.raises(ConfigError):
            PartialView(2).set_capacity(0)


class TestQueries:
    def test_insertion_order_preserved(self):
        view = PartialView(5)
        for pid in (3, 1, 2):
            view.add(desc(pid))
        assert view.pids == [3, 1, 2]
        assert [d.pid for d in view.descriptors()] == [3, 1, 2]

    def test_sample_size_and_exclusion(self):
        rng = random.Random(0)
        view = PartialView(10)
        for pid in range(10):
            view.add(desc(pid))
        sample = view.sample(4, rng, exclude=[0, 1])
        assert len(sample) == 4
        assert all(d.pid not in (0, 1) for d in sample)

    def test_sample_more_than_available(self):
        rng = random.Random(0)
        view = PartialView(10)
        view.add(desc(1))
        assert len(view.sample(5, rng)) == 1

    def test_sample_negative_raises(self):
        with pytest.raises(ConfigError):
            PartialView(2).sample(-1, random.Random(0))

    def test_sample_distinct(self):
        rng = random.Random(0)
        view = PartialView(10)
        for pid in range(10):
            view.add(desc(pid))
        sample = view.sample(10, rng)
        assert len({d.pid for d in sample}) == 10


class TestDescriptorCache:
    def test_descriptors_cached_between_calls(self):
        view = PartialView(5)
        view.add(desc(1))
        view.add(desc(2))
        first = view.descriptors()
        assert view.descriptors() is first  # served from cache

    def test_cache_invalidated_by_each_mutator(self):
        rng = random.Random(0)
        mutations = [
            lambda v: v.add(desc(50), rng),
            lambda v: v.remove(2),
            lambda v: v.merge([desc(60), desc(61)], rng),
            lambda v: v.replace([1], [desc(70)], rng),
            lambda v: v.clear(),
        ]
        for mutate in mutations:
            view = PartialView(10)
            for pid in (1, 2, 3):
                view.add(desc(pid))
            before = view.descriptors()
            mutate(view)
            after = view.descriptors()
            assert after == tuple(view._entries.values())
            assert after != before

    def test_eviction_invalidates_cache(self):
        rng = random.Random(3)
        view = PartialView(2)
        view.add(desc(1), rng)
        view.add(desc(2), rng)
        view.descriptors()
        view.add(desc(3), rng)  # overflow -> eviction
        assert len(view.descriptors()) == 2
        assert view.descriptors() == tuple(view._entries.values())

    def test_shrink_invalidates_cache(self):
        rng = random.Random(3)
        view = PartialView(4)
        for pid in range(4):
            view.add(desc(pid))
        view.descriptors()
        view.set_capacity(2, rng)
        assert len(view.descriptors()) == 2
        assert view.descriptors() == tuple(view._entries.values())

    def test_sample_fast_path_when_excluded_absent(self):
        # exclude=(own pid,) with the pid not in the view must not disturb
        # the sampled outcome vs an explicit candidates list.
        view = PartialView(10)
        for pid in range(10):
            view.add(desc(pid))
        r1, r2 = random.Random(7), random.Random(7)
        fast = view.sample(4, r1, exclude=(999,))
        explicit = r2.sample(list(view.descriptors()), 4)
        assert fast == explicit
        assert r1.getstate() == r2.getstate()

    def test_sample_returns_fresh_list(self):
        view = PartialView(5)
        view.add(desc(1))
        got = view.sample(5, random.Random(0), exclude=(42,))
        got.append(desc(2))  # caller may mutate the result freely
        assert len(view) == 1
        assert view.sample(5, random.Random(0)) == [desc(1)]

    def test_sample_with_generator_exclude(self):
        view = PartialView(5)
        for pid in range(5):
            view.add(desc(pid))
        got = view.sample(5, random.Random(0), exclude=(p for p in (0, 1)))
        assert sorted(d.pid for d in got) == [2, 3, 4]


class TestDescriptor:
    def test_ordering(self):
        a = ProcessDescriptor(1, T)
        b = ProcessDescriptor(2, T)
        assert a < b

    def test_equality_and_hash(self):
        assert desc(1) == desc(1)
        assert len({desc(1), desc(1)}) == 1
