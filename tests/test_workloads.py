"""Unit tests for workload generators (scenarios, subscriptions, publications)."""

import random

import pytest

from repro.errors import ConfigError
from repro.topics import ROOT, Topic
from repro.topics.builders import balanced_tree, chain
from repro.workloads import (
    PaperScenario,
    PoissonSchedule,
    burst_schedule,
    single_shot,
    uniform_subscriptions,
    zipf_subscriptions,
)
from repro.workloads.scenarios import delivered_fractions, inter_group_messages


class TestPaperScenario:
    def test_defaults_match_section7(self):
        scenario = PaperScenario()
        assert tuple(scenario.sizes) == (10, 100, 1000)
        assert scenario.b == 3
        assert scenario.c == 5
        assert scenario.g == 5
        assert scenario.a == 1
        assert scenario.z == 3
        assert scenario.p_succ == 0.85
        assert scenario.depth == 2

    def test_topics_chain(self):
        topics = PaperScenario().topics()
        assert topics[0] == ROOT
        assert len(topics) == 3
        assert topics[2].super_topic == topics[1]

    def test_build_creates_groups(self):
        run = PaperScenario(sizes=(3, 10, 30)).build(seed=1)
        for topic, size in zip(run.compiled.ordered_topics, (3, 10, 30)):
            assert len(run.system.group(topic)) == size

    def test_publisher_in_publish_group(self):
        run = PaperScenario(sizes=(3, 10, 30)).build(seed=1)
        topic = run.schedule[0].topic
        assert run.publishers[topic].pid in run.system.group_pids(topic)

    def test_publisher_protected_from_stillborn(self):
        run = PaperScenario(sizes=(3, 10, 30)).build(
            seed=1, alive_fraction=0.1
        )
        publisher = run.publishers[run.schedule[0].topic]
        assert run.system.harness.is_alive(publisher.pid)

    def test_dynamic_mode_keeps_everyone_alive(self):
        run = PaperScenario(sizes=(3, 10, 30)).build(
            seed=1, alive_fraction=0.3, failure_mode="dynamic"
        )
        assert all(
            run.system.harness.is_alive(p.pid) for p in run.system.processes
        )

    def test_publish_and_run_measures(self):
        run = PaperScenario(sizes=(3, 10, 30)).build(seed=2)
        run.execute()
        (event,) = run.published
        fractions = delivered_fractions(run)
        assert set(fractions) == set(run.compiled.ordered_topics)
        assert run.system.stats.events_sent_in_group(event.topic) > 0
        inter = inter_group_messages(run)
        assert len(inter) == 2

    def test_same_seed_same_outcome(self):
        def outcome(seed):
            run = PaperScenario(sizes=(3, 10, 30)).build(seed=seed)
            run.execute()
            return (
                run.system.stats.event_messages_sent(),
                tuple(sorted(delivered_fractions(run).values())),
            )

        assert outcome(7) == outcome(7)
        assert outcome(7) != outcome(8) or True  # different seeds may differ

    def test_invalid_failure_mode(self):
        with pytest.raises(ConfigError):
            PaperScenario(sizes=(3, 5, 7)).build(seed=0, failure_mode="odd")

    def test_invalid_alive_fraction(self):
        with pytest.raises(ConfigError):
            PaperScenario(sizes=(3, 5, 7)).build(seed=0, alive_fraction=2.0)

    def test_publish_level_override(self):
        scenario = PaperScenario(sizes=(3, 10, 30), publish_level=1)
        run = scenario.build(seed=0)
        assert run.schedule[0].topic == run.compiled.ordered_topics[1]

    @pytest.mark.parametrize(
        "scenario, section",
        [
            (PaperScenario(sizes=(3, 5.5, 10)), "subscriptions"),
            (PaperScenario(sizes=(3, 5, 10), publish_level=7), "publications"),
        ],
    )
    def test_bad_field_is_a_config_error_naming_the_section(
        self, scenario, section
    ):
        with pytest.raises(ConfigError, match=section):
            scenario.build(seed=1)

    def test_unpopulated_middle_level_is_skipped(self):
        # §III-B: nobody interested in super(Ti) — the sTable points at the
        # next populated supertopic and the event still reaches the root.
        run = PaperScenario(sizes=(3, 0, 10)).build(seed=1)
        run.execute()
        assert list(delivered_fractions(run).values()) == [1.0, 1.0, 1.0]


class TestSubscriptions:
    def test_uniform_total(self):
        h = balanced_tree(2, 2)
        counts = uniform_subscriptions(h, 100, random.Random(0))
        assert sum(counts.values()) == 100

    def test_uniform_excludes_root_when_asked(self):
        h = balanced_tree(2, 2)
        counts = uniform_subscriptions(
            h, 50, random.Random(0), include_root=False
        )
        assert ROOT not in counts

    def test_zipf_skews_head(self):
        h = balanced_tree(3, 2)
        counts = zipf_subscriptions(h, 1000, random.Random(0), exponent=1.5)
        ordered = [counts[t] for t in sorted(counts)]
        assert ordered[0] > ordered[-1]

    def test_zipf_total(self):
        h = balanced_tree(2, 2)
        counts = zipf_subscriptions(h, 300, random.Random(1))
        assert sum(counts.values()) == 300

    def test_zipf_validation(self):
        h = balanced_tree(2, 1)
        with pytest.raises(ConfigError):
            zipf_subscriptions(h, -1, random.Random(0))


class TestPublications:
    def test_single_shot(self):
        topic = Topic.parse(".a")
        schedule = single_shot(topic, at=3.0)
        assert len(schedule) == 1
        assert schedule[0].time == 3.0
        assert schedule[0].topic == topic

    def test_burst(self):
        topic = Topic.parse(".a")
        schedule = burst_schedule(topic, count=4, start=1.0, spacing=0.5)
        assert [p.time for p in schedule] == [1.0, 1.5, 2.0, 2.5]

    def test_burst_validation(self):
        with pytest.raises(ConfigError):
            burst_schedule(Topic.parse(".a"), count=0)

    def test_poisson_bounds_and_rate(self):
        topics = chain(1)
        schedule = PoissonSchedule(topics, rate=2.0, horizon=100.0)
        events = schedule.generate(random.Random(0))
        assert all(0 < p.time <= 100.0 for p in events)
        assert 120 <= len(events) <= 280  # ~200 expected

    def test_poisson_weights(self):
        a, b = Topic.parse(".a"), Topic.parse(".b")
        schedule = PoissonSchedule(
            [a, b], rate=5.0, horizon=200.0, weights=[0.9, 0.1]
        )
        events = schedule.generate(random.Random(1))
        a_count = sum(1 for p in events if p.topic == a)
        assert a_count > len(events) / 2

    def test_poisson_validation(self):
        with pytest.raises(ConfigError):
            PoissonSchedule([], rate=1.0, horizon=1.0)
        with pytest.raises(ConfigError):
            PoissonSchedule(chain(1), rate=0, horizon=1.0)
        with pytest.raises(ConfigError):
            PoissonSchedule(chain(1), rate=1.0, horizon=1.0, weights=[1.0])

    # ------------------------------------------------------------------
    # Edge cases: a NaN rate/spacing would silently yield an unsorted or
    # *infinite* schedule (nan comparisons are always False, so the
    # Poisson loop never crosses the horizon); inf likewise. All must be
    # rejected eagerly with ConfigError.
    # ------------------------------------------------------------------
    def test_burst_rejects_non_finite_spacing(self):
        topic = Topic.parse(".a")
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="spacing must be finite"):
                burst_schedule(topic, count=3, spacing=bad)

    def test_burst_rejects_non_finite_or_negative_start(self):
        topic = Topic.parse(".a")
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="start must be finite"):
                burst_schedule(topic, count=3, start=bad)
        with pytest.raises(ConfigError, match="start must be >= 0"):
            burst_schedule(topic, count=3, start=-1.0)

    def test_single_shot_rejects_bad_at(self):
        topic = Topic.parse(".a")
        with pytest.raises(ConfigError, match="at must be finite"):
            single_shot(topic, at=float("nan"))
        with pytest.raises(ConfigError, match="at must be >= 0"):
            single_shot(topic, at=-0.5)

    def test_poisson_rejects_non_finite_rate(self):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="rate must be finite"):
                PoissonSchedule(chain(1), rate=bad, horizon=10.0)

    def test_poisson_rejects_non_finite_horizon(self):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="horizon must be finite"):
                PoissonSchedule(chain(1), rate=1.0, horizon=bad)

    def test_poisson_rejects_bad_weights(self):
        topics = [Topic.parse(".a"), Topic.parse(".b")]
        with pytest.raises(ConfigError, match="finite and >= 0"):
            PoissonSchedule(
                topics, rate=1.0, horizon=1.0, weights=[1.0, float("nan")]
            )
        with pytest.raises(ConfigError, match="finite and >= 0"):
            PoissonSchedule(topics, rate=1.0, horizon=1.0, weights=[1.0, -1.0])
        with pytest.raises(ConfigError, match="not all be zero"):
            PoissonSchedule(topics, rate=1.0, horizon=1.0, weights=[0.0, 0.0])
