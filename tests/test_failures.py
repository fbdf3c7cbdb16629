"""Unit tests for all failure models."""

import random

import pytest

from repro.errors import ConfigError
from repro.failures import (
    AlwaysAlive,
    ChurnSchedule,
    DynamicFailures,
    StillbornFailures,
    sample_stillborn,
)


class TestAlwaysAlive:
    def test_everyone_alive(self):
        model = AlwaysAlive()
        assert model.is_alive(7, 0.0)
        assert model.is_alive(7, 1e9)

    def test_never_blocks(self):
        model = AlwaysAlive()
        assert not model.transmission_blocked(1, 2, 0.0, random.Random(0))


class TestStillborn:
    def test_failed_set(self):
        model = StillbornFailures({1, 2})
        assert not model.is_alive(1, 0.0)
        assert not model.is_alive(2, 100.0)
        assert model.is_alive(3, 0.0)

    def test_never_blocks_transmissions(self):
        model = StillbornFailures({1})
        assert not model.transmission_blocked(0, 1, 0.0, random.Random(0))

    def test_static_dead_is_the_failed_set(self):
        assert StillbornFailures([5, 5, 6]).static_dead == frozenset({5, 6})


class TestSampleStillborn:
    def test_fraction(self):
        pids = list(range(100))
        model = sample_stillborn(pids, alive_fraction=0.7, rng=random.Random(1))
        assert len(model.static_dead) == 30

    def test_all_alive(self):
        model = sample_stillborn(range(50), 1.0, random.Random(0))
        assert len(model.static_dead) == 0

    def test_all_dead(self):
        model = sample_stillborn(range(50), 0.0, random.Random(0))
        assert len(model.static_dead) == 50

    def test_protected_never_chosen(self):
        pids = list(range(20))
        model = sample_stillborn(
            pids, alive_fraction=0.05, rng=random.Random(2), protected=[3]
        )
        assert 3 not in model.static_dead

    def test_protection_caps_failures(self):
        model = sample_stillborn(
            [1, 2], alive_fraction=0.0, rng=random.Random(0), protected=[1]
        )
        assert model.static_dead == frozenset({2})

    def test_deterministic(self):
        a = sample_stillborn(range(100), 0.5, random.Random(9))
        b = sample_stillborn(range(100), 0.5, random.Random(9))
        assert a.static_dead == b.static_dead

    def test_invalid_fraction(self):
        with pytest.raises(ConfigError):
            sample_stillborn(range(10), 1.5, random.Random(0))


class TestDynamicFailures:
    def test_ground_truth_always_alive(self):
        model = DynamicFailures(0.9)
        assert model.is_alive(1, 0.0)

    def test_per_attempt_rate(self):
        model = DynamicFailures(0.3, mode="per_attempt")
        rng = random.Random(4)
        blocked = sum(
            model.transmission_blocked(0, 1, 0.0, rng) for _ in range(2000)
        )
        assert 480 <= blocked <= 720  # ~600

    def test_per_attempt_varies_per_call(self):
        model = DynamicFailures(0.5, mode="per_attempt")
        rng = random.Random(0)
        outcomes = {model.transmission_blocked(0, 1, 0.0, rng) for _ in range(50)}
        assert outcomes == {True, False}

    def test_per_pair_is_deterministic(self):
        model = DynamicFailures(0.5, mode="per_pair", seed=3)
        rng = random.Random(0)
        first = model.transmission_blocked(0, 1, 0.0, rng)
        for _ in range(10):
            assert model.transmission_blocked(0, 1, 0.0, rng) == first

    def test_per_pair_differs_across_pairs(self):
        model = DynamicFailures(0.5, mode="per_pair", seed=3)
        rng = random.Random(0)
        outcomes = {
            model.transmission_blocked(s, t, 0.0, rng)
            for s in range(10)
            for t in range(10)
            if s != t
        }
        assert outcomes == {True, False}

    def test_per_pair_rate(self):
        model = DynamicFailures(0.4, mode="per_pair", seed=11)
        rng = random.Random(0)
        blocked = sum(
            model.transmission_blocked(s, t, 0.0, rng)
            for s in range(50)
            for t in range(50)
            if s != t
        )
        total = 50 * 49
        assert 0.3 * total <= blocked <= 0.5 * total

    def test_zero_probability_never_blocks(self):
        model = DynamicFailures(0.0)
        rng = random.Random(0)
        assert not any(
            model.transmission_blocked(0, 1, 0.0, rng) for _ in range(100)
        )

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            DynamicFailures(-0.1)

    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            DynamicFailures(0.5, mode="weird")  # type: ignore[arg-type]


class TestChurnSchedule:
    def test_alive_by_default(self):
        schedule = ChurnSchedule()
        assert schedule.is_alive(1, 0.0)

    def test_crash(self):
        schedule = ChurnSchedule().crash_at(1, 5.0)
        assert schedule.is_alive(1, 4.9)
        assert not schedule.is_alive(1, 5.0)
        assert not schedule.is_alive(1, 100.0)

    def test_crash_and_recover(self):
        schedule = ChurnSchedule().crash_at(1, 5.0).recover_at(1, 10.0)
        assert schedule.is_alive(1, 4.0)
        assert not schedule.is_alive(1, 7.0)
        assert schedule.is_alive(1, 10.0)

    def test_out_of_order_insertion(self):
        schedule = ChurnSchedule().recover_at(1, 10.0).crash_at(1, 5.0)
        assert not schedule.is_alive(1, 7.0)
        assert schedule.is_alive(1, 12.0)

    def test_other_processes_unaffected(self):
        schedule = ChurnSchedule().crash_at(1, 0.0)
        assert schedule.is_alive(2, 0.0)

    def test_crash_at_zero(self):
        schedule = ChurnSchedule().crash_at(1, 0.0)
        assert not schedule.is_alive(1, 0.0)

    def test_never_blocks_transmissions(self):
        schedule = ChurnSchedule().crash_at(1, 0.0)
        assert not schedule.transmission_blocked(0, 1, 0.0, random.Random(0))

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            ChurnSchedule().crash_at(1, -1.0)

    def test_non_finite_time_rejected(self):
        # A NaN passes `time < 0` and would corrupt the binary-searched
        # timeline (sorting and bisect comparisons on NaN are arbitrary).
        with pytest.raises(ConfigError, match="finite"):
            ChurnSchedule().crash_at(1, float("nan"))
        with pytest.raises(ConfigError, match="finite"):
            ChurnSchedule().recover_at(1, float("inf"))

    def test_random_churn_non_finite_horizon_rejected(self):
        rng = random.Random(0)
        with pytest.raises(ConfigError, match="finite"):
            ChurnSchedule.random_churn(
                range(5), rng, crash_probability=0.5, horizon=float("nan")
            )

    def test_random_churn_bounds(self):
        rng = random.Random(5)
        schedule = ChurnSchedule.random_churn(
            range(100), rng, crash_probability=0.5, horizon=100.0
        )
        crashed_at_end = sum(
            0 if schedule.is_alive(pid, 1000.0) else 1 for pid in range(100)
        )
        # Roughly half crash, and about half of those recover.
        assert 5 <= crashed_at_end <= 50

    def test_random_churn_validation(self):
        rng = random.Random(0)
        with pytest.raises(ConfigError):
            ChurnSchedule.random_churn(range(5), rng, crash_probability=2.0, horizon=10)
        with pytest.raises(ConfigError):
            ChurnSchedule.random_churn(range(5), rng, crash_probability=0.5, horizon=0)
