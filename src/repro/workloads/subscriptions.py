"""Subscription populations over a topic hierarchy.

The figure experiments use fixed per-level counts (§VII), but the baseline
comparisons and the examples need richer populations: uniform spread over
all topics, or Zipf-like popularity where a few topics attract most
subscribers (the typical newsgroup/feed shape the paper's introduction
motivates).
"""

from __future__ import annotations

import random
from typing import Mapping

from repro.errors import ConfigError
from repro.topics.hierarchy import TopicHierarchy
from repro.topics.topic import Topic
from repro.validation import check_non_negative


def uniform_subscriptions(
    hierarchy: TopicHierarchy,
    n_processes: int,
    rng: random.Random,
    *,
    include_root: bool = True,
) -> dict[Topic, int]:
    """Spread ``n_processes`` uniformly over the hierarchy's topics."""
    if n_processes < 0:
        raise ConfigError(f"n_processes must be >= 0, got {n_processes}")
    topics = [
        t for t in hierarchy.topics if include_root or not t.is_root
    ]
    if not topics:
        raise ConfigError("hierarchy has no eligible topics")
    counts = {topic: 0 for topic in topics}
    for _ in range(n_processes):
        counts[rng.choice(topics)] += 1
    return counts


def zipf_subscriptions(
    hierarchy: TopicHierarchy,
    n_processes: int,
    rng: random.Random,
    *,
    exponent: float = 1.0,
    include_root: bool = False,
) -> dict[Topic, int]:
    """Zipf-popularity subscriptions: rank-``k`` topic gets weight
    ``k^-exponent``.

    Topic rank follows the sorted topic order (deterministic), so the same
    hierarchy and seed give the same population. The root is excluded by
    default — in practice few applications subscribe to "everything".
    """
    if n_processes < 0:
        raise ConfigError(f"n_processes must be >= 0, got {n_processes}")
    check_non_negative(exponent, "exponent")
    topics = [
        t for t in hierarchy.topics if include_root or not t.is_root
    ]
    if not topics:
        raise ConfigError("hierarchy has no eligible topics")
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(topics))]
    counts = {topic: 0 for topic in topics}
    for chosen in rng.choices(topics, weights=weights, k=n_processes):
        counts[chosen] += 1
    return counts


def populate_system(system, counts: Mapping[Topic, int]) -> None:
    """Instantiate ``counts[topic]`` processes per topic on any system
    exposing ``add_group`` (DaMulticastSystem or a baseline)."""
    for topic, count in sorted(counts.items()):
        if count > 0:
            system.add_group(topic, count)
