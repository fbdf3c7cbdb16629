"""Publication schedules for multi-event experiments.

The paper's figures use a single publication per run; the examples and the
throughput-oriented tests exercise streams of events: Poisson arrivals
(steady feed) and bursts (news spikes).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

from repro.errors import ConfigError
from repro.topics.topic import Topic
from repro.validation import check_non_negative, check_positive


@dataclass(frozen=True, slots=True)
class ScheduledPublication:
    """One planned publication: when, and on which topic."""

    time: float
    topic: Topic


def single_shot(topic: Topic, at: float = 0.0) -> list[ScheduledPublication]:
    """The §VII workload: exactly one event."""
    check_non_negative(at, "at")
    return [ScheduledPublication(at, topic)]


def burst_schedule(
    topic: Topic,
    *,
    count: int,
    start: float = 0.0,
    spacing: float = 0.0,
) -> list[ScheduledPublication]:
    """``count`` publications on one topic, ``spacing`` apart.

    ``start`` and ``spacing`` must be finite and non-negative: a NaN or
    infinite value would silently produce an unsorted (or unrunnable)
    schedule, and a negative ``start`` would schedule in the engine's past.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    check_non_negative(spacing, "spacing")
    check_non_negative(start, "start")
    return [
        ScheduledPublication(start + index * spacing, topic)
        for index in range(count)
    ]


def replay_on(
    system,
    publications: Sequence[ScheduledPublication],
    *,
    publishers: Mapping[Topic, Any] | None = None,
) -> list:
    """Schedule each publication on the system's engine at its time.

    Works with any system exposing ``engine`` and ``publish(topic)`` (the
    daMulticast system or a baseline). Returns a list that fills with the
    published :class:`~repro.core.events.Event` objects as the simulation
    executes them — inspect it *after* running the engine.

    ``publishers`` optionally pins the publishing process per topic (the
    scenario-spec runner uses this to publish from a pre-chosen,
    failure-protected process); topics absent from the mapping fall back
    to the system's default alive-publisher draw.
    """
    published: list = []

    def _publisher(topic: Topic):
        chosen = publishers.get(topic) if publishers is not None else None
        return lambda: published.append(
            system.publish(topic, publisher=chosen)
        )

    for publication in publications:
        system.engine.schedule_at(publication.time, _publisher(publication.topic))
    return published


class PoissonSchedule:
    """Poisson arrivals at ``rate`` events/time-unit over ``[0, horizon]``,
    topics drawn uniformly (or per explicit weights)."""

    def __init__(
        self,
        topics: Sequence[Topic],
        *,
        rate: float,
        horizon: float,
        weights: Sequence[float] | None = None,
    ):
        if not topics:
            raise ConfigError("need at least one topic")
        # A NaN rate/horizon passes naive `<= 0` checks and then loops
        # forever (expovariate(nan) never crosses the horizon); an infinite
        # rate yields zero-length intervals and an unbounded schedule.
        check_positive(rate, "rate")
        check_positive(horizon, "horizon")
        if weights is not None:
            if len(weights) != len(topics):
                raise ConfigError("weights must match topics")
            for weight in weights:
                if not math.isfinite(weight) or weight < 0:
                    raise ConfigError(
                        f"weights must be finite and >= 0, got {weight!r}"
                    )
            if sum(weights) <= 0:
                raise ConfigError("weights must not all be zero")
        self.topics = list(topics)
        self.rate = rate
        self.horizon = horizon
        self.weights = list(weights) if weights is not None else None

    def generate(self, rng: random.Random) -> list[ScheduledPublication]:
        """Draw one schedule realization."""
        schedule: list[ScheduledPublication] = []
        now = 0.0
        while True:
            now += rng.expovariate(self.rate)
            if now > self.horizon:
                break
            topic = (
                rng.choices(self.topics, weights=self.weights, k=1)[0]
                if self.weights
                else rng.choice(self.topics)
            )
            schedule.append(ScheduledPublication(now, topic))
        return schedule

    def __iter__(self) -> Iterator[Topic]:
        return iter(self.topics)

    def __repr__(self) -> str:
        return (
            f"PoissonSchedule({len(self.topics)} topics, rate={self.rate}, "
            f"horizon={self.horizon})"
        )
