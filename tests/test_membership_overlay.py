"""Unit tests for the weakly-consistent bootstrap overlay."""

import random

import pytest

from repro.errors import ConfigError, UnknownActor
from repro.membership import BootstrapOverlay, ProcessDescriptor
from repro.topics import Topic

T = Topic.parse(".t")


def grown(n, degree=5, seed=0):
    """An overlay ``n`` processes joined one by one (the system's way)."""
    overlay = BootstrapOverlay(degree=degree)
    rng = random.Random(seed)
    for pid in range(n):
        overlay.add_process(ProcessDescriptor(pid, T), rng)
    return overlay


class TestGrowth:
    def test_joiners_get_degree_distinct_contacts(self):
        overlay = grown(50, degree=5)
        for pid in range(5, 50):
            contacts = [c.pid for c in overlay.neighborhood(pid)]
            assert len(contacts) >= 5
            assert len(set(contacts)) == len(contacts)
            assert pid not in contacts

    def test_early_joiners_get_what_exists(self):
        overlay = grown(3, degree=5)
        assert len(overlay.neighborhood(2)) >= 2

    def test_contains(self):
        overlay = grown(10)
        assert 3 in overlay
        assert 99 not in overlay

    def test_invalid_degree(self):
        with pytest.raises(ConfigError):
            BootstrapOverlay(degree=0)


class TestAddProcess:
    def test_late_joiner_gets_contacts(self):
        overlay = grown(20, degree=4)
        joiner = ProcessDescriptor(100, T)
        overlay.add_process(joiner, random.Random(1))
        assert len(overlay.neighborhood(100)) == 4

    def test_late_joiner_is_discoverable(self):
        overlay = grown(20, degree=4)
        joiner = ProcessDescriptor(100, T)
        overlay.add_process(joiner, random.Random(1))
        knowers = [
            pid
            for pid in range(20)
            if any(c.pid == 100 for c in overlay.neighborhood(pid))
        ]
        assert len(knowers) >= 1

    def test_first_process_has_no_contacts(self):
        overlay = BootstrapOverlay(degree=4)
        overlay.add_process(ProcessDescriptor(0, T), random.Random(0))
        assert overlay.neighborhood(0) == []


class TestQueries:
    def test_unknown_pid_raises(self):
        overlay = BootstrapOverlay()
        with pytest.raises(UnknownActor):
            overlay.neighborhood(7)

    def test_neighborhood_returns_copy(self):
        overlay = grown(5)
        overlay.neighborhood(4).clear()
        assert overlay.neighborhood(4)  # unaffected
