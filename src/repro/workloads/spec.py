"""Declarative scenario specifications: a dict/JSON spec → runnable simulation.

Every scenario in the tree is built here — the §VII
:class:`~repro.workloads.scenarios.PaperScenario` under the figure drivers
included, which states itself as a spec. A spec composes the ingredients
that already exist as modules:

* a **topic hierarchy** — chain, balanced tree, or explicit dotted names
  (:mod:`repro.topics.builders`),
* a **subscription population** — per-level counts, explicit per-topic
  counts, uniform, or Zipf popularity (:mod:`repro.workloads.subscriptions`),
* a **publication schedule** — single-shot, burst, Poisson, or a mixed
  multi-topic merge of those (:mod:`repro.workloads.publications`),
* a **failure plan** — none, stillborn, dynamic (weakly-consistent),
  crash/recover churn, or network partitions (:mod:`repro.failures`,
  :mod:`repro.net.partitions`),
* **protocol parameters** — :class:`~repro.core.params.TopicParams`
  defaults plus per-topic overrides,
* a **protocol** — daMulticast or any baseline (broadcast, multicast,
  hierarchical, naive publisher),
* an execution **mode** — ``"static"`` (the §VII simulator: tables drawn
  once, runs to quiescence) or ``"dynamic"`` (the full protocol: staggered
  joins bootstrap through the overlay, FIND_SUPER_CONTACT floods, tables
  self-repair, and the run is driven to a spec-derived horizon),
* a **latency model** (``latency`` section, either mode:
  constant/uniform/exponential, with optional per-link-class
  ``intra``/``inter`` overrides for daMulticast),
* a **link-fault plan** (``faults`` section, either mode: Bernoulli or
  Gilbert–Elliott burst loss, duplication, delay spikes — composed
  loss → duplicate → delay_spike per link, with optional per-link-class
  ``intra``/``inter`` overrides for daMulticast; see
  :mod:`repro.net.faults`),
* and, in dynamic mode, a **bootstrap arrival schedule** (``dynamic``
  section: immediate, staggered, or waves) plus an orchestrated **failure
  campaign** (``campaign`` section compiling to
  :class:`~repro.failures.injector.FailureCampaign` actions), both read
  by :mod:`repro.workloads.spec_dynamic`.

A spec is a plain mapping (JSON-serializable), validated with precise
:class:`~repro.errors.ConfigError` messages — unknown keys, out-of-domain
values and impossible references all fail eagerly at compile time, never
mid-simulation (only a publication target that a seeded ``uniform``/``zipf``
population leaves empty, or whose first member a dynamic run's bootstrap
lets join after the publication, can surface at build time, before
anything runs).
:func:`compile_spec` reads each section once, into the values the build
consumes, and turns the spec into a :class:`CompiledSpec`;
``CompiledSpec.run(seed)`` (or the :func:`run_spec` shorthand) builds the
system — populate groups, pin failure-protected publishers, install the
failure/partition model, finalize static membership (``PaperScenario.build``
is this build of ``PaperScenario.spec()``) — replays the schedule, and
returns the standard metrics dict.

Determinism
-----------
``run_spec(spec, seed)`` is a pure function of ``(spec, seed)``: every
random decision draws from a stream derived via
:func:`~repro.sim.rng.derive_seed` (``spec/subscriptions``,
``spec/publications/<i>``, ``spec/scenario``, ``spec/faults`` for the
link-fault coins, and in dynamic mode ``spec/churn`` for churn
realization and ``spec/campaign`` for campaign samples), so the same
spec and seed give bit-identical metrics in any process. The fault
coins draw from their own stream, so a spec with ``faults`` omitted
(or every stage ``none``) makes **zero** fault draws and is
bit-identical to the same spec before the fault layer existed. That is what makes specs
sweepable over any field through the parallel sweep engine:
:func:`sweep_scenario` derives per-cell seeds with the standard
``derive_seed(master_seed, f"{label}/{point}/{j}")`` contract and is
therefore bit-identical for every executor and worker count.

Defaults differing from :class:`~repro.core.params.TopicParams`: specs use
``fanout_log_base = 10`` (the paper's own simulator scale) unless
overridden.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import pathlib
import random
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.core.params import DaMulticastConfig, TopicParams
from repro.core.system import DaMulticastSystem
from repro.errors import ConfigError, ReproError
from repro.failures.stillborn import sample_stillborn
from repro.metrics.degradation import (
    WindowPoint,
    degradation_summary,
    delivery_ratio_series,
)
from repro.metrics.delivery import parasite_deliveries
from repro.net.faults import (
    BernoulliLoss,
    DelaySpike,
    DuplicateModel,
    FaultPipeline,
    GilbertElliott,
    LinkClassFaults,
    NoFaults,
)
from repro.net.latency import (
    ConstantLatency,
    ExponentialLatency,
    LinkClassLatency,
    UniformLatency,
    ZERO_LATENCY,
)
from repro.net.partitions import StaticPartition
from repro.net.stats import DROP_REASONS, FAULT_REASONS
from repro.sim.rng import derive_seed
from repro.topics.builders import balanced_tree, chain, from_names
from repro.validation import check_finite, check_number
from repro.topics.hierarchy import TopicHierarchy
from repro.topics.topic import Topic
from repro.workloads.publications import (
    PoissonSchedule,
    ScheduledPublication,
    burst_schedule,
    replay_on,
    single_shot,
)
from repro.workloads.subscriptions import (
    populate_system,
    uniform_subscriptions,
    zipf_subscriptions,
)

# What only some runs use is imported where it is used: the baselines in
# _make_system, the perceived and churn failure models in the builders that
# make them, the dynamic and campaign sections (repro.workloads.spec_dynamic,
# with the campaign model) in compile_spec's and build's dynamic branches,
# the experiments port (executor, artifacts, runner) in spec_digest,
# run_scenario and sweep_scenario. A static daMulticast run loads none of
# them.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.executor import ExecutorSpec
    from repro.experiments.runner import ProgressFn, SweepResult
    from repro.failures.churn import ChurnSchedule
    from repro.failures.dynamic import DynamicFailures
    from repro.failures.injector import FailureCampaign

PROTOCOLS = ("daMulticast", "broadcast", "multicast", "hierarchical", "naive")

_TOP_KEYS = {
    "name",
    "description",
    "protocol",
    "mode",
    "topics",
    "subscriptions",
    "publications",
    "failures",
    "campaign",
    "latency",
    "faults",
    "dynamic",
    "params",
    "p_success",
}

#: Spec-level parameter defaults: the §VII constants with the paper's own
#: simulator log base (see DESIGN.md faithfulness note 2).
_PARAM_DEFAULTS: dict[str, Any] = {
    "b": 3.0,
    "c": 5.0,
    "g": 5.0,
    "a": 1.0,
    "z": 3,
    "tau": 1,
    "fanout_log_base": 10.0,
}

_LINK_CLASSES = ("inter", "intra")

_MISSING = object()


# ----------------------------------------------------------------------
# Validation primitives
# ----------------------------------------------------------------------
def _require_mapping(value: Any, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigError(
            f"{where} must be a mapping, got {type(value).__name__}"
        )
    return value


def _reject_unknown_keys(
    section: Mapping, allowed: set[str], where: str
) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _take_kind(section: Mapping, kinds: Sequence[str], where: str) -> str:
    kind = section.get("kind")
    if kind not in kinds:
        raise ConfigError(
            f"{where}: 'kind' must be one of {', '.join(kinds)}, "
            f"got {kind!r}"
        )
    return kind


def _get_number(
    section: Mapping,
    key: str,
    where: str,
    *,
    default: Any = _MISSING,
    minimum: float | None = None,
    maximum: float | None = None,
    above: float | None = None,
    integer: bool = False,
) -> Any:
    value = section.get(key, _MISSING)
    if value is _MISSING:
        if default is _MISSING:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    check_number(value, f"{where}: {key}")
    if integer and not isinstance(value, int):
        raise ConfigError(f"{where}: {key} must be an integer, got {value!r}")
    check_finite(value, f"{where}: {key}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: {key} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{where}: {key} must be <= {maximum}, got {value}")
    if above is not None and value <= above:
        raise ConfigError(f"{where}: {key} must be > {above}, got {value}")
    return value


def _get_bool(
    section: Mapping, key: str, where: str, *, default: bool
) -> bool:
    value = section.get(key, _MISSING)
    if value is _MISSING:
        return default
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: {key} must be a boolean, got {value!r}")
    return value


def _parse_topic(name: Any, where: str) -> Topic:
    if not isinstance(name, str):
        raise ConfigError(
            f"{where}: topic name must be a string, got {name!r}"
        )
    try:
        return Topic.parse(name)
    except ReproError as exc:
        raise ConfigError(f"{where}: invalid topic name {name!r}: {exc}") from exc


def _parse_topic_key(name: Any, where: str, seen: dict[Topic, str]) -> Topic:
    """A mapping key naming a topic. Two spellings of one topic (``a`` and
    ``.a``) are refused: the later entry would silently replace the earlier."""
    topic = _parse_topic(name, where)
    if seen.setdefault(topic, name) != name:
        first, second = sorted((seen[topic], name))
        raise ConfigError(
            f"{where}: topic {topic.name!r} is given twice "
            f"({first!r} and {second!r})"
        )
    return topic


# ----------------------------------------------------------------------
# Section parsers: each validates its section and returns what
# CompiledSpec.build consumes — a plain value, or a functools.partial of
# the constructor the build calls. Every default is stated here, once.
# ----------------------------------------------------------------------
def _parse_topics(
    section: Mapping,
) -> tuple[TopicHierarchy, tuple[Topic, ...], bool]:
    """Validate the topic section; return (hierarchy, ordered topics, chain?).

    Chain topics are ordered root-first (the §VII layout); any other shape
    uses the hierarchy's canonical sorted order.
    """
    _require_mapping(section, "topics")
    kind = _take_kind(section, ("chain", "tree", "names"), "topics")
    if kind == "chain":
        _reject_unknown_keys(section, {"kind", "depth", "prefix"}, "topics")
        depth = _get_number(section, "depth", "topics", minimum=0, integer=True)
        prefix = section.get("prefix", "t")
        if not isinstance(prefix, str) or not prefix:
            raise ConfigError(
                f"topics: prefix must be a non-empty string, got {prefix!r}"
            )
        try:
            topics = chain(depth, prefix=prefix)
        except ReproError as exc:
            raise ConfigError(f"topics: invalid prefix {prefix!r}: {exc}") from exc
        return TopicHierarchy.from_topics(topics), tuple(topics), True
    if kind == "tree":
        _reject_unknown_keys(section, {"kind", "arity", "depth"}, "topics")
        arity = _get_number(section, "arity", "topics", minimum=1, integer=True)
        depth = _get_number(section, "depth", "topics", minimum=1, integer=True)
        hierarchy = balanced_tree(arity, depth)
        return hierarchy, tuple(hierarchy.topics), False
    # names
    _reject_unknown_keys(section, {"kind", "names"}, "topics")
    names = section.get("names")
    if not isinstance(names, Sequence) or isinstance(names, str) or not names:
        raise ConfigError(
            "topics: 'names' must be a non-empty list of dotted topic names"
        )
    parsed = [_parse_topic(name, "topics.names") for name in names]
    hierarchy = from_names(n.name for n in parsed)
    return hierarchy, tuple(hierarchy.topics), False


def _parse_subscriptions(
    section: Mapping,
    hierarchy: TopicHierarchy,
    ordered_topics: tuple[Topic, ...],
    is_chain: bool,
) -> tuple[dict[Topic, int] | functools.partial, int]:
    """The population — a fixed ``{Topic: count}`` (``per_level``,
    ``explicit``), or the seeded draw the build calls with its
    ``spec/subscriptions`` stream (``uniform``, ``zipf``) — and its
    ceiling: the fixed total, or the draw's ``n``."""
    _require_mapping(section, "subscriptions")
    kind = _take_kind(
        section, ("per_level", "explicit", "uniform", "zipf"), "subscriptions"
    )
    if kind == "per_level":
        _reject_unknown_keys(section, {"kind", "counts"}, "subscriptions")
        if not is_chain:
            raise ConfigError(
                "subscriptions: kind 'per_level' requires a chain topic "
                "hierarchy; use 'explicit' counts for trees/names"
            )
        counts = section.get("counts")
        if not isinstance(counts, Sequence) or isinstance(counts, str):
            raise ConfigError(
                "subscriptions: 'counts' must be a list of integers"
            )
        if len(counts) != len(ordered_topics):
            raise ConfigError(
                f"subscriptions: {len(counts)} counts for "
                f"{len(ordered_topics)} chain levels; they must match"
            )
        for count in counts:
            if isinstance(count, bool) or not isinstance(count, int):
                raise ConfigError(
                    f"subscriptions: counts must be integers, got {count!r}"
                )
            if count < 0:
                raise ConfigError(
                    f"subscriptions: counts must be >= 0, got {count}"
                )
        if sum(counts) < 1:
            raise ConfigError("subscriptions: population must not be empty")
        return dict(zip(ordered_topics, counts)), sum(counts)
    if kind == "explicit":
        _reject_unknown_keys(section, {"kind", "counts"}, "subscriptions")
        counts = section.get("counts")
        _require_mapping(counts, "subscriptions.counts")
        entries: list[tuple[str, Topic, int]] = []
        seen: dict[Topic, str] = {}
        # repro-lint: allow[DET003]: errors follow the spec's declared topic order and the population is sorted by name below
        for name, count in counts.items():
            topic = _parse_topic_key(name, "subscriptions.counts", seen)
            if topic not in hierarchy:
                raise ConfigError(
                    f"subscriptions.counts: topic {topic.name!r} is not in "
                    "the declared hierarchy"
                )
            if isinstance(count, bool) or not isinstance(count, int):
                raise ConfigError(
                    f"subscriptions.counts[{name!r}] must be an integer, "
                    f"got {count!r}"
                )
            if count < 0:
                raise ConfigError(
                    f"subscriptions.counts[{name!r}] must be >= 0, got {count}"
                )
            entries.append((name, topic, count))
        total = sum(count for _, _, count in entries)
        if total < 1:
            raise ConfigError("subscriptions: population must not be empty")
        return {topic: count for _, topic, count in sorted(entries)}, total
    if kind == "uniform":
        _reject_unknown_keys(
            section, {"kind", "n", "include_root"}, "subscriptions"
        )
        n = _get_number(section, "n", "subscriptions", minimum=1, integer=True)
        include_root = _get_bool(
            section, "include_root", "subscriptions", default=True
        )
        return functools.partial(
            uniform_subscriptions, hierarchy, n, include_root=include_root
        ), n
    # zipf
    _reject_unknown_keys(
        section, {"kind", "n", "exponent", "include_root"}, "subscriptions"
    )
    n = _get_number(section, "n", "subscriptions", minimum=1, integer=True)
    exponent = _get_number(
        section, "exponent", "subscriptions", default=1.0, minimum=0
    )
    include_root = _get_bool(
        section, "include_root", "subscriptions", default=False
    )
    # the last-ranked topic's weight is 1 / ranks**exponent: that power
    # must stay below 2**1023, a float (and an int pow the build can do)
    ranks = sum(1 for topic in hierarchy.topics if include_root or not topic.is_root)
    if ranks > 1 and exponent * math.log2(ranks) >= 1023:
        raise ConfigError(
            f"subscriptions: exponent {exponent} is too large for {ranks} "
            f"ranked topics (rank**exponent must fit a float)"
        )
    return functools.partial(
        zipf_subscriptions, hierarchy, n, exponent=exponent, include_root=include_root
    ), n


def _parse_topic_ref(
    section: Mapping,
    ordered_topics: tuple[Topic, ...],
    hierarchy: TopicHierarchy,
    is_chain: bool,
    where: str,
) -> Topic | None:
    """One target: a 'topic' name or (chains only) a 'level'; None when
    the section names neither."""
    if "topic" in section and "level" in section:
        raise ConfigError(f"{where}: give 'topic' or 'level', not both")
    if "topic" in section:
        topic = _parse_topic(section["topic"], where)
        if topic not in hierarchy:
            raise ConfigError(
                f"{where}: topic {topic.name!r} is not in the declared "
                "hierarchy"
            )
        return topic
    if "level" not in section:
        return None
    if not is_chain:
        raise ConfigError(
            f"{where}: 'level' requires a chain topic hierarchy; "
            "use 'topic' names for trees/names"
        )
    level = section["level"]
    if isinstance(level, bool) or not isinstance(level, int):
        raise ConfigError(f"{where}: level must be an integer, got {level!r}")
    if not -len(ordered_topics) <= level < len(ordered_topics):
        raise ConfigError(
            f"{where}: level {level} out of range for a chain of "
            f"{len(ordered_topics)} levels"
        )
    return ordered_topics[level]


def _resolve_target(
    topic: Topic | None, counts: Mapping[Topic, int], where: str
) -> Topic:
    """A publication target under ``counts``: ``topic``, or the deepest
    populated topic for None; it must have subscribers."""
    if topic is None:
        populated = [t for t, c in counts.items() if c > 0]
        topic = max(populated, key=lambda t: (t.depth, t.name))
    if counts.get(topic, 0) < 1:
        raise ConfigError(
            f"{where}: publication topic {topic.name!r} has no "
            "subscribers under this population"
        )
    return topic


def _resolve_targets(
    topics: tuple[Topic, ...] | None, counts: Mapping[Topic, int], where: str
) -> list[Topic]:
    """Poisson targets under ``counts``: every populated topic for None."""
    if topics is None:
        return sorted(t for t, c in counts.items() if c > 0)
    return [_resolve_target(topic, counts, where) for topic in topics]


def _on_topic(
    make, topic: Topic | None, where: str, counts, rng
) -> list[ScheduledPublication]:
    """A ``single``/``burst`` part: ``make`` on its resolved target."""
    return make(_resolve_target(topic, counts, where))


def _poisson(
    topics: tuple[Topic, ...] | None, where: str, counts, rng, **options
) -> list[ScheduledPublication]:
    """A ``poisson`` part, drawn from the part's stream ``rng``."""
    schedule = PoissonSchedule(_resolve_targets(topics, counts, where), **options)
    return schedule.generate(rng)


def _parse_publications(
    section: Mapping,
    ordered_topics: tuple[Topic, ...],
    hierarchy: TopicHierarchy,
    is_chain: bool,
    fixed: Mapping[Topic, int] | None,
    where: str = "publications",
    allow_mixed: bool = True,
    joined: Callable[[Topic, float, str], None] | None = None,
) -> functools.partial | tuple[functools.partial, ...]:
    """The schedule as ``part(counts, rng)`` — for ``mixed``, a tuple of
    parts, each drawn from its own stream.

    Under a ``fixed`` population the targets resolve here, so a target
    without subscribers fails at compile time; under a seeded one the
    build resolves them (None: the deepest populated topic). A dynamic
    run's ``joined(topic, at, where)`` check refuses a target whose
    earliest publication comes before its first member joins: ``at`` or
    ``start``, or — Poisson arrivals fall anywhere after 0 — any time at
    all for a target of non-zero weight.
    """
    _require_mapping(section, where)
    kinds = ("single", "burst", "poisson") + (("mixed",) if allow_mixed else ())
    kind = _take_kind(section, kinds, where)
    if kind == "single":
        _reject_unknown_keys(section, {"kind", "topic", "level", "at"}, where)
        topic = _parse_topic_ref(section, ordered_topics, hierarchy, is_chain, where)
        start = _get_number(section, "at", where, default=0.0, minimum=0)
        make = functools.partial(single_shot, at=start)
    elif kind == "burst":
        _reject_unknown_keys(
            section, {"kind", "topic", "level", "count", "start", "spacing"}, where
        )
        topic = _parse_topic_ref(section, ordered_topics, hierarchy, is_chain, where)
        count = _get_number(section, "count", where, minimum=1, integer=True)
        start = _get_number(section, "start", where, default=0.0, minimum=0)
        spacing = _get_number(section, "spacing", where, default=0.0, minimum=0)
        if not math.isfinite(start + (count - 1) * spacing):
            raise ConfigError(
                f"{where}: spacing {spacing} puts publication {count} of "
                f"{count} at an infinite time (start + (count-1)·spacing)"
            )
        make = functools.partial(
            burst_schedule, count=count, start=start, spacing=spacing
        )
    elif kind == "poisson":
        _reject_unknown_keys(
            section,
            {"kind", "topics", "levels", "weights", "rate", "horizon"},
            where,
        )
        rate = _get_number(section, "rate", where, above=0)
        horizon = _get_number(section, "horizon", where, above=0)
        if "topics" in section and "levels" in section:
            raise ConfigError(f"{where}: give 'topics' or 'levels', not both")
        topics = None
        if "topics" in section:
            names = section["topics"]
            if not isinstance(names, Sequence) or isinstance(names, str) or not names:
                raise ConfigError(
                    f"{where}: 'topics' must be a non-empty list of names"
                )
            topics = tuple(
                _parse_topic_ref(
                    {"topic": name}, ordered_topics, hierarchy, is_chain, where
                )
                for name in names
            )
        elif "levels" in section:
            levels = section["levels"]
            if not isinstance(levels, Sequence) or not levels:
                raise ConfigError(
                    f"{where}: 'levels' must be a non-empty list of integers"
                )
            topics = tuple(
                _parse_topic_ref(
                    {"level": level}, ordered_topics, hierarchy, is_chain, where
                )
                for level in levels
            )
        weights = section.get("weights")
        if "weights" in section:
            if topics is None:
                raise ConfigError(
                    f"{where}: 'weights' requires explicit 'topics' or 'levels'"
                )
            if not isinstance(weights, Sequence) or len(weights) != len(topics):
                raise ConfigError(
                    f"{where}: 'weights' must list one weight per target"
                )
            for weight in weights:
                if (
                    isinstance(weight, bool)
                    or not isinstance(weight, (int, float))
                    or not math.isfinite(weight)
                    or weight < 0
                ):
                    raise ConfigError(
                        f"{where}: weights must be finite numbers >= 0, "
                        f"got {weight!r}"
                    )
            if sum(weights) <= 0:
                raise ConfigError(f"{where}: weights must not all be zero")
            weights = list(weights)
        if fixed is not None:
            topics = tuple(_resolve_targets(topics, fixed, where))
        if joined is not None:
            for topic, weight in zip(topics, weights or [1.0] * len(topics)):
                if weight > 0:
                    joined(topic, 0.0, where)
        return functools.partial(
            _poisson, topics, where, rate=rate, horizon=horizon, weights=weights
        )
    else:  # mixed
        _reject_unknown_keys(section, {"kind", "parts"}, where)
        parts = section.get("parts")
        if not isinstance(parts, Sequence) or isinstance(parts, str) or not parts:
            raise ConfigError(
                f"{where}: 'parts' must be a non-empty list of schedules"
            )
        return tuple(
            _parse_publications(
                part,
                ordered_topics,
                hierarchy,
                is_chain,
                fixed,
                where=f"{where}.parts[{index}]",
                allow_mixed=False,
                joined=joined,
            )
            for index, part in enumerate(parts)
        )
    if fixed is not None:
        topic = _resolve_target(topic, fixed, where)
    if joined is not None:
        joined(topic, start, where)
    return functools.partial(_on_topic, make, topic, where)


def _perceived(pids, rng, protected, **options) -> DynamicFailures:
    """Weakly-consistent failures: drawn per transmission, not per build."""
    from repro.failures.dynamic import DynamicFailures

    return DynamicFailures(**options)


def _churn(pids, rng, protected, **options) -> ChurnSchedule:
    """A crash/recover timeline over the unprotected ``pids``."""
    from repro.failures.churn import ChurnSchedule

    shielded = set(protected)
    return ChurnSchedule.random_churn(
        [pid for pid in pids if pid not in shielded], rng, **options
    )


def _parse_failures(
    section: Mapping,
) -> tuple[functools.partial | None, tuple | None]:
    """(process-failure model, partition): the model is built per build as
    ``model(pids, rng=..., protected=...)`` (``protected`` pids never
    fail); the partition is ``(islands, heals_at)``. None when absent."""
    _require_mapping(section, "failures")
    kind = _take_kind(
        section,
        ("none", "stillborn", "dynamic", "churn", "partition"),
        "failures",
    )
    if kind == "none":
        _reject_unknown_keys(section, {"kind"}, "failures")
        return None, None
    if kind == "partition":
        _reject_unknown_keys(section, {"kind", "islands", "heals_at"}, "failures")
        islands = section.get("islands", _MISSING)
        if islands is _MISSING:
            raise ConfigError("failures: missing required key 'islands'")
        if islands != "by_topic" and (
            isinstance(islands, bool) or not isinstance(islands, int) or islands < 2
        ):
            raise ConfigError(
                "failures: 'islands' must be an integer >= 2 (random "
                f"assignment) or 'by_topic', got {islands!r}"
            )
        heals_at = section.get("heals_at")
        if heals_at is not None:
            _get_number(section, "heals_at", "failures", minimum=0)
        return None, (islands, heals_at)
    if kind == "stillborn":
        _reject_unknown_keys(section, {"kind", "alive_fraction"}, "failures")
        alive = _get_number(
            section, "alive_fraction", "failures", minimum=0.0, maximum=1.0
        )
        model = functools.partial(sample_stillborn, alive_fraction=alive)
    elif kind == "dynamic":
        _reject_unknown_keys(
            section, {"kind", "alive_fraction", "mode"}, "failures"
        )
        alive = _get_number(
            section, "alive_fraction", "failures", minimum=0.0, maximum=1.0
        )
        mode = section.get("mode", "per_attempt")
        if mode not in ("per_attempt", "per_pair"):
            raise ConfigError(
                "failures: dynamic mode must be 'per_attempt' or "
                f"'per_pair', got {mode!r}"
            )
        model = functools.partial(
            _perceived, fail_probability=1.0 - alive, mode=mode
        )
    else:  # churn
        _reject_unknown_keys(
            section,
            {"kind", "crash_probability", "recover_probability", "horizon"},
            "failures",
        )
        model = functools.partial(
            _churn,
            crash_probability=_get_number(
                section, "crash_probability", "failures", minimum=0.0, maximum=1.0
            ),
            recover_probability=_get_number(
                section,
                "recover_probability",
                "failures",
                default=0.5,
                minimum=0.0,
                maximum=1.0,
            ),
            horizon=_get_number(section, "horizon", "failures", above=0),
        )
    return model, None


def _parse_link_overrides(
    section: Mapping, protocol: str, where: str, parse, requires: str
) -> dict:
    """The per-link-class ``overrides`` of a latency/faults section, each
    class parsed by ``parse``, sorted by class."""
    if "overrides" not in section:
        return {}
    overrides = _require_mapping(section["overrides"], f"{where}.overrides")
    if protocol != "daMulticast":
        raise ConfigError(
            f"{where}.overrides: per-link-class {requires} protocol "
            f"'daMulticast', got {protocol!r}"
        )
    parsed = {}
    for name, sub in overrides.items():
        if name not in _LINK_CLASSES:
            raise ConfigError(
                f"{where}.overrides: unknown link class {name!r}; "
                f"allowed: {', '.join(_LINK_CLASSES)}"
            )
        parsed[name] = parse(
            sub,
            protocol,
            where=f"{where}.overrides[{name!r}]",
            allow_overrides=False,
        )
    return dict(sorted(parsed.items()))


def _link_classes(table, default, overrides):
    """A fresh ``table(default(), {class: model()})`` — the class-keyed
    latency or fault model of one build."""
    return table(default(), {name: make() for name, make in overrides.items()})


def _parse_latency(
    section: Mapping,
    protocol: str,
    where: str = "latency",
    allow_overrides: bool = True,
) -> functools.partial:
    """The latency-model constructor; every build calls it for fresh
    instances."""
    _require_mapping(section, where)
    kind = _take_kind(section, ("constant", "uniform", "exponential"), where)
    allowed = {"kind"}
    if kind == "constant":
        allowed |= {"delay"}
        delay = _get_number(section, "delay", where, default=0.0, minimum=0)
        make = functools.partial(ConstantLatency, delay)
    elif kind == "uniform":
        allowed |= {"low", "high"}
        low = _get_number(section, "low", where, minimum=0)
        high = _get_number(section, "high", where, minimum=0)
        if high < low:
            raise ConfigError(
                f"{where}: need low <= high, got [{low}, {high}]"
            )
        make = functools.partial(UniformLatency, low, high)
    else:  # exponential
        allowed |= {"mean"}
        mean = _get_number(section, "mean", where, above=0)
        make = functools.partial(ExponentialLatency, mean)
    overrides = {}
    if allow_overrides:
        allowed |= {"overrides"}
        overrides = _parse_link_overrides(
            section, protocol, where, _parse_latency, "latency requires"
        )
    _reject_unknown_keys(section, allowed, where)
    if not overrides:
        return make
    return functools.partial(_link_classes, LinkClassLatency, make, overrides)


def _fault_pipeline(stages) -> FaultPipeline:
    return FaultPipeline([make() for make in stages])


def _parse_faults(
    section: Mapping,
    protocol: str,
    where: str = "faults",
    allow_overrides: bool = True,
) -> functools.partial | None:
    """One ``faults`` (sub-)section → the constructor of its fault model;
    every build calls it for fresh instances (Gilbert–Elliott link state
    never leaks across builds). None when no stage is configured.

    Shape (all keys optional; every sub-section is a mapping so any field
    is reachable by :func:`spec_with` dotted paths, e.g.
    ``faults.loss.p`` or ``faults.overrides.inter.loss.p``)::

        {"loss":        {"kind": "bernoulli", "p": ...}
                      | {"kind": "gilbert_elliott", "p_good_bad": ...,
                         "p_bad_good": ..., "loss_good": ..., "loss_bad": ...}
                      | {"kind": "none"},
         "duplicate":   {"p": ..., "max_copies": ...},
         "delay_spike": {"p": ..., "factor": ...} | {"p": ..., "extra": ...},
         "overrides":   {"intra"/"inter": <same shape, no overrides>}}

    Stages compose loss → duplicate → delay_spike (a lost message cannot
    be duplicated or delayed). With no stage at all the build installs
    nothing, so the fault stream is never consulted and the run is
    bit-identical to a spec without ``faults``. A configured stage with
    ``p == 0`` *is* installed (it draws but never fires), so every point
    of a loss-rate sweep — including 0 — pays the same draw sequence and
    differs only in coin outcomes.
    """
    _require_mapping(section, where)
    allowed = {"loss", "duplicate", "delay_spike"}
    stages = []
    if "loss" in section:
        sub_where = f"{where}.loss"
        sub = _require_mapping(section["loss"], sub_where)
        kind = _take_kind(
            sub, ("none", "bernoulli", "gilbert_elliott"), sub_where
        )
        if kind == "none":
            _reject_unknown_keys(sub, {"kind"}, sub_where)
        elif kind == "bernoulli":
            _reject_unknown_keys(sub, {"kind", "p"}, sub_where)
            p = _get_number(sub, "p", sub_where, minimum=0.0, maximum=1.0)
            stages.append(functools.partial(BernoulliLoss, p))
        else:  # gilbert_elliott
            _reject_unknown_keys(
                sub,
                {"kind", "p_good_bad", "p_bad_good", "loss_good", "loss_bad"},
                sub_where,
            )
            p_gb = _get_number(
                sub, "p_good_bad", sub_where, minimum=0.0, maximum=1.0
            )
            p_bg = _get_number(
                sub, "p_bad_good", sub_where, minimum=0.0, maximum=1.0
            )
            if p_gb + p_bg <= 0.0:
                raise ConfigError(
                    f"{sub_where}: need p_good_bad + p_bad_good > 0 (both "
                    "zero means the chain never moves)"
                )
            loss_good = _get_number(
                sub, "loss_good", sub_where, default=0.0, minimum=0.0, maximum=1.0
            )
            loss_bad = _get_number(
                sub, "loss_bad", sub_where, default=1.0, minimum=0.0, maximum=1.0
            )
            stages.append(
                functools.partial(
                    GilbertElliott, p_gb, p_bg, loss_good=loss_good, loss_bad=loss_bad
                )
            )
    if "duplicate" in section:
        sub_where = f"{where}.duplicate"
        sub = _require_mapping(section["duplicate"], sub_where)
        _reject_unknown_keys(sub, {"p", "max_copies"}, sub_where)
        p = _get_number(sub, "p", sub_where, minimum=0.0, maximum=1.0)
        max_copies = _get_number(
            sub, "max_copies", sub_where, default=2, minimum=2, integer=True
        )
        stages.append(functools.partial(DuplicateModel, p, max_copies))
    if "delay_spike" in section:
        sub_where = f"{where}.delay_spike"
        sub = _require_mapping(section["delay_spike"], sub_where)
        _reject_unknown_keys(sub, {"p", "factor", "extra"}, sub_where)
        p = _get_number(sub, "p", sub_where, minimum=0.0, maximum=1.0)
        if ("factor" in sub) == ("extra" in sub):
            raise ConfigError(
                f"{sub_where}: give exactly one of 'factor' (multiplies the "
                "sampled latency) or 'extra' (adds to it)"
            )
        if "factor" in sub:
            knob = {"factor": _get_number(sub, "factor", sub_where, minimum=1.0)}
        else:
            knob = {"extra": _get_number(sub, "extra", sub_where, minimum=0.0)}
        stages.append(functools.partial(DelaySpike, p, **knob))
    overrides = {}
    if allow_overrides:
        allowed |= {"overrides"}
        overrides = _parse_link_overrides(
            section, protocol, where, _parse_faults, "faults require"
        )
    _reject_unknown_keys(section, allowed, where)
    default = (
        None if not stages
        else stages[0] if len(stages) == 1
        else functools.partial(_fault_pipeline, tuple(stages))
    )
    overrides = {name: make for name, make in overrides.items() if make is not None}
    if not overrides:
        return default
    # no default stage: links outside the overridden classes draw nothing
    return functools.partial(
        _link_classes, LinkClassFaults, default or NoFaults, overrides
    )


def _parse_params(
    section: Mapping, protocol: str
) -> tuple[TopicParams, dict[Topic, TopicParams]]:
    _require_mapping(section, "params")
    allowed = set(_PARAM_DEFAULTS) | {"overrides"}
    _reject_unknown_keys(section, allowed, "params")
    merged = dict(_PARAM_DEFAULTS)
    for key in _PARAM_DEFAULTS:
        if key in section:
            merged[key] = _get_number(
                section, key, "params", integer=key in ("z", "tau")
            )
    try:
        defaults = TopicParams(**merged)
    except ConfigError as exc:
        raise ConfigError(f"params: {exc}") from exc
    overrides: dict[Topic, TopicParams] = {}
    if "overrides" in section:
        if protocol != "daMulticast":
            raise ConfigError(
                "params.overrides: per-topic overrides require protocol "
                f"'daMulticast', got {protocol!r}"
            )
        override_map = _require_mapping(section["overrides"], "params.overrides")
        seen: dict[Topic, str] = {}
        for name, fields in override_map.items():
            topic = _parse_topic_key(name, "params.overrides", seen)
            where = f"params.overrides[{name!r}]"
            fields = _require_mapping(fields, where)
            _reject_unknown_keys(fields, set(_PARAM_DEFAULTS), where)
            patch = {
                key: _get_number(
                    fields, key, where, integer=key in ("z", "tau")
                )
                for key in _PARAM_DEFAULTS
                if key in fields
            }
            try:
                overrides[topic] = replace(defaults, **patch)
            except ConfigError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
    return defaults, overrides


def _parse_protocol(value: Any) -> tuple[str, dict[str, Any]]:
    if value is None:
        return "daMulticast", {}
    if isinstance(value, str):
        name, options = value, {}
    elif isinstance(value, Mapping):
        _reject_unknown_keys(value, {"name", "n_clusters"}, "protocol")
        name = value.get("name")
        options = {k: v for k, v in value.items() if k != "name"}
    else:
        raise ConfigError(
            f"protocol must be a string or a mapping, got {value!r}"
        )
    if name not in PROTOCOLS:
        raise ConfigError(
            f"protocol must be one of {', '.join(PROTOCOLS)}, got {name!r}"
        )
    if options and name != "hierarchical":
        raise ConfigError(
            f"protocol: options {sorted(options)} are only valid for "
            "'hierarchical'"
        )
    if "n_clusters" in options:
        _get_number(options, "n_clusters", "protocol", minimum=2, integer=True)
    return name, options


# ----------------------------------------------------------------------
# The compiled spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompiledSpec:
    """A validated scenario spec, ready to build per-seed simulations.

    ``spec`` is a deep copy of the input mapping — plain data, picklable,
    so sweep workers can re-compile it locally (compilation is cheap and
    workers never receive live objects). The fields after ``p_success``
    are the parsed sections the build consumes (see each ``_parse_*``);
    the build never reads ``spec``.
    """

    spec: dict
    name: str
    description: str
    protocol: str
    protocol_options: dict
    mode: str
    hierarchy: TopicHierarchy
    ordered_topics: tuple[Topic, ...]
    is_chain: bool
    params: TopicParams
    overrides: dict[Topic, TopicParams]
    p_success: float
    population: dict[Topic, int] | functools.partial
    publications: functools.partial | tuple[functools.partial, ...]
    failures: functools.partial | None
    partition: tuple | None
    latency: functools.partial | None
    faults: functools.partial | None
    dynamic: dict[str, Any] | None
    bootstrap: tuple | None
    campaign: tuple[tuple[float, Any], ...] | None

    # ------------------------------------------------------------------
    # Per-seed realization
    # ------------------------------------------------------------------
    def _schedule(
        self, seed: int, counts: Mapping[Topic, int]
    ) -> list[ScheduledPublication]:
        publications = self.publications
        if callable(publications):
            return publications(
                counts, random.Random(derive_seed(seed, "spec/publications"))
            )
        # mixed: realize every part on its own stream, merge time-sorted
        merged: list[ScheduledPublication] = []
        for index, part in enumerate(publications):
            merged.extend(
                part(
                    counts,
                    random.Random(derive_seed(seed, f"spec/publications/{index}")),
                )
            )
        merged.sort(key=lambda publication: publication.time)
        return merged

    def _make_system(
        self,
        seed: int,
        counts: Mapping[Topic, int],
        failure_model=None,
        **dynamic: Any,
    ):
        """The empty system of this spec's protocol and mode; ``dynamic``
        is a dynamic run's settings (the :class:`DaMulticastConfig` timers
        and the bootstrap ``overlay_degree``), empty in static mode."""
        latency_model = ZERO_LATENCY if self.latency is None else self.latency()
        if self.protocol == "daMulticast":
            overlay = (
                {"overlay_degree": dynamic.pop("overlay_degree")} if dynamic else {}
            )
            config = DaMulticastConfig(
                default_params=self.params,
                overrides=dict(self.overrides),
                **dynamic,
            )
            return DaMulticastSystem(
                config=config,
                seed=seed,
                p_success=self.p_success,
                latency=latency_model,
                failure_model=failure_model,
                mode=self.mode,
                **overlay,
            )
        common = dict(
            seed=seed,
            p_success=self.p_success,
            latency=latency_model,
            b=self.params.b,
            c=self.params.c,
            log_base=self.params.fanout_log_base,
        )
        if self.protocol == "broadcast":
            from repro.baselines.broadcast import GossipBroadcastSystem

            return GossipBroadcastSystem(**common)
        if self.protocol == "multicast":
            from repro.baselines.multicast import GossipMulticastSystem

            return GossipMulticastSystem(**common)
        if self.protocol == "naive":
            from repro.baselines.naive_publisher import NaivePublisherSystem

            return NaivePublisherSystem(**common)
        from repro.baselines.hierarchical import HierarchicalGossipSystem

        total = sum(counts.values())
        n_clusters = self.protocol_options.get(
            "n_clusters", max(2, round(total**0.5 / 3))
        )
        return HierarchicalGossipSystem(n_clusters=n_clusters, **common)

    def _apply_failures(
        self,
        system,
        publishers: Mapping[Topic, Any],
        counts: Mapping[Topic, int],
        rng: random.Random,
    ) -> None:
        if self.failures is None and self.partition is None:
            return
        network = system.harness.network
        all_pids = [process.pid for process in system.processes]
        if self.failures is not None:
            protected = sorted({process.pid for process in publishers.values()})
            network.failure_model = self.failures(
                all_pids, rng=rng, protected=protected
            )
            return
        islands_spec, heals_at = self.partition
        if islands_spec == "by_topic":
            islands = [
                [process.pid for process in system.group(topic)]
                for topic in sorted(counts)
                if counts[topic] > 0
            ]
        else:
            assignment = {pid: rng.randrange(islands_spec) for pid in all_pids}
            islands = [
                [pid for pid in all_pids if assignment[pid] == index]
                for index in range(islands_spec)
            ]
        network.install_partition_model(
            StaticPartition(islands, heals_at=heals_at)
        )

    def _install_link_models(self, system, seed: int) -> None:
        """Install the spec's fault model on the built system's network,
        and the link classifier its class-keyed models share.

        The coins come from the dedicated ``spec/faults`` stream, so
        installing a model never perturbs the network/latency draw
        sequence — a 0%-loss point of a sweep replays the exact fault-free
        trajectory.
        """
        network = system.harness.network
        model = None if self.faults is None else self.faults()
        if model is not None:
            network.install_faults(
                model, random.Random(derive_seed(seed, "spec/faults"))
            )
        if isinstance(network.latency, LinkClassLatency) or isinstance(
            model, LinkClassFaults
        ):
            network.bind_link_classifier(_topic_link_classifier(system))

    def build(self, seed: int) -> "BuiltScenario":
        """Assemble the ready-to-run simulation for one seed."""
        population = self.population
        counts = (
            population(random.Random(derive_seed(seed, "spec/subscriptions")))
            if callable(population)
            else dict(population)
        )
        schedule = self._schedule(seed, counts)
        if self.mode == "dynamic":
            from repro.workloads.spec_dynamic import _build_dynamic

            return _build_dynamic(self, seed, counts, schedule)
        system = self._make_system(seed, counts)
        self._install_link_models(system, seed)
        populate_system(system, counts)
        scenario_rng = random.Random(derive_seed(seed, "spec/scenario"))
        publishers = {
            topic: scenario_rng.choice(system.group(topic))
            for topic in sorted({publication.topic for publication in schedule})
        }
        self._apply_failures(system, publishers, counts, scenario_rng)
        system.finalize_static_membership()
        return BuiltScenario(
            compiled=self,
            seed=seed,
            system=system,
            counts=counts,
            schedule=schedule,
            publishers=publishers,
        )

    def run(self, seed: int) -> dict[str, float]:
        """Build, replay the schedule to quiescence, return metrics.

        ``run`` owns the system it built and closes it once the metrics
        are taken; :meth:`build` hands the system to the caller, who may
        keep querying it after ``execute()`` and calls ``system.close()``
        when done with it. A static system is freed by reference count
        as soon as it is dropped, closed or not.
        """
        built = self.build(seed)
        try:
            return built.execute()
        finally:
            built.system.close()


def _topic_link_classifier(system: DaMulticastSystem):
    """Classify a fan-out's links as ``intra`` (same group) / ``inter``
    (cross-group); None for a pid that has not joined yet (a send racing a
    staggered join)."""
    process_of = system.process_by_pid.get

    def classify(sender: int, targets: Sequence[int]) -> list[str | None]:
        source = process_of(sender)
        if source is None:
            return [None] * len(targets)
        topic = source.topic
        return [
            None if (peer := process_of(target)) is None
            else "intra" if peer.topic is topic
            else "inter"
            for target in targets
        ]

    return classify


@dataclass
class BuiltScenario:
    """A built spec plus the handles examples and metrics need.

    Static builds run to quiescence; dynamic builds carry a ``horizon``
    (derived from joins, publications, campaign actions and the settle
    time) and run exactly that far — the full protocol's periodic tasks
    never idle. ``publishers`` is None in dynamic mode: the publisher is
    drawn among the members *alive at publication time*, which a build-time
    pin cannot know.
    """

    compiled: CompiledSpec
    seed: int
    system: Any
    counts: dict[Topic, int]
    schedule: list[ScheduledPublication]
    publishers: dict[Topic, Any] | None
    published: list = field(default_factory=list)
    executed: bool = False
    horizon: float | None = None
    campaign: FailureCampaign | None = None

    def execute(self) -> dict[str, float]:
        """Replay the publication schedule (to quiescence, or to the
        dynamic horizon); return metrics."""
        if self.executed:
            raise ConfigError(
                "scenario already executed; build a fresh one to re-run"
            )
        self.published = replay_on(
            self.system, self.schedule, publishers=self.publishers
        )
        if self.horizon is None:
            self.system.run_until_idle()
        else:
            self.system.run(until=self.horizon)
        self.executed = True
        return self.metrics()

    def metrics(self) -> dict[str, float]:
        """The standard scenario metrics dict (all values floats).

        Keys are population-independent so repeated runs of one spec always
        aggregate cleanly (``aggregate_runs`` requires identical key sets).
        """
        system = self.system
        events = len(self.published)
        event_messages = float(system.stats.event_messages_sent())
        alive_fractions: list[float] = []
        all_fractions: list[float] = []
        for event in self.published:
            alive_fractions.append(
                system.delivered_fraction(event, event.topic, alive_only=True)
            )
            all_fractions.append(
                system.delivered_fraction(event, event.topic, alive_only=False)
            )
        parasites = parasite_deliveries(system.tracker, system.interests())
        out = {
            "events": float(events),
            "event_messages": event_messages,
            "messages_per_event": event_messages / events if events else 0.0,
            "mean_delivery": (
                math.fsum(alive_fractions) / len(alive_fractions)
                if alive_fractions
                else 1.0
            ),
            "min_delivery": min(alive_fractions) if alive_fractions else 1.0,
            "mean_delivery_all": (
                math.fsum(all_fractions) / len(all_fractions)
                if all_fractions
                else 1.0
            ),
            "parasites": float(parasites),
            # every process is one registered actor: counted, not listed
            "processes": float(len(system.harness.network)),
            "subscribed_topics": float(
                sum(1 for count in self.counts.values() if count > 0)
            ),
        }
        # Zero-filled over the full reason vocabularies (not just reasons
        # that fired) so every run of every spec emits the same key set.
        for reason in DROP_REASONS:
            out[f"dropped_{reason}"] = float(
                system.stats.dropped_by_reason.get(reason, 0)
            )
        for reason in FAULT_REASONS:
            out[f"faults_{reason}"] = float(
                system.stats.faults_by_reason.get(reason, 0)
            )
        return out

    # ------------------------------------------------------------------
    # Graceful-degradation queries (post-execute)
    # ------------------------------------------------------------------
    def delivery_windows(self, window: float) -> list[WindowPoint]:
        """Sliding-window delivery-ratio series of this run (event time).

        See :func:`repro.metrics.degradation.delivery_ratio_series`.
        """
        return delivery_ratio_series(self.system.tracker, window)

    def degradation(self) -> dict[str, dict[str, float | int | None]]:
        """Per-topic delivered fractions (delivered / expected-at-publish).

        One sweep point of a delivered-fraction-vs-loss-rate reliability
        curve; see :func:`repro.metrics.degradation.degradation_summary`.
        """
        return degradation_summary(self.system.tracker)


# ----------------------------------------------------------------------
# Compilation entry point
# ----------------------------------------------------------------------
def compile_spec(spec: Mapping) -> CompiledSpec:
    """Validate ``spec`` and return a :class:`CompiledSpec`.

    Every structural or domain problem raises a :class:`ConfigError`
    naming the offending section, key and value.
    """
    _require_mapping(spec, "spec")
    _reject_unknown_keys(spec, _TOP_KEYS, "spec")
    if "topics" not in spec:
        raise ConfigError("spec: missing required section 'topics'")
    if "subscriptions" not in spec:
        raise ConfigError("spec: missing required section 'subscriptions'")
    name = spec.get("name", "unnamed")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"spec: 'name' must be a non-empty string, got {name!r}")
    description = spec.get("description", "")
    if not isinstance(description, str):
        raise ConfigError("spec: 'description' must be a string")

    mode = spec.get("mode", "static")
    if mode not in ("static", "dynamic"):
        raise ConfigError(
            f"spec: 'mode' must be 'static' or 'dynamic', got {mode!r}"
        )

    protocol, protocol_options = _parse_protocol(spec.get("protocol"))
    hierarchy, ordered_topics, is_chain = _parse_topics(spec["topics"])
    population, ceiling = _parse_subscriptions(
        spec["subscriptions"], hierarchy, ordered_topics, is_chain
    )
    failures_section = spec.get("failures", {"kind": "none"})
    failures, partition = _parse_failures(failures_section)
    fixed = None if callable(population) else population
    dynamic = bootstrap = campaign = joined = None
    if mode == "dynamic":
        from repro.workloads.spec_dynamic import (
            _parse_campaign,
            _parse_dynamic,
            _publication_check,
        )

        if protocol != "daMulticast":
            raise ConfigError(
                "spec: mode 'dynamic' requires protocol 'daMulticast' "
                f"(the baselines have no dynamic protocol), got {protocol!r}"
            )
        failures_kind = failures_section.get("kind")
        if failures_kind in ("stillborn", "partition"):
            raise ConfigError(
                f"failures: kind {failures_kind!r} is a static-mode plan; "
                "dynamic mode supports 'none', 'churn' or 'dynamic'"
            )
        dynamic, bootstrap = _parse_dynamic(spec.get("dynamic", {}), ceiling)
        if fixed is not None:
            joined = _publication_check(dynamic, bootstrap, fixed)
        if "campaign" in spec:
            if failures_kind == "dynamic":
                raise ConfigError(
                    "campaign: cannot combine with 'dynamic' failures — a "
                    "campaign drives a crash/recover (churn) failure model"
                )
            campaign = _parse_campaign(
                spec["campaign"], ordered_topics, hierarchy, is_chain
            )
    else:
        for section in ("dynamic", "campaign"):
            if section in spec:
                raise ConfigError(
                    f"spec: the {section!r} section requires mode 'dynamic'"
                )
    publications = _parse_publications(
        spec.get("publications", {"kind": "single"}),
        ordered_topics,
        hierarchy,
        is_chain,
        fixed=fixed,
        joined=joined,
    )
    latency = (
        _parse_latency(spec["latency"], protocol) if "latency" in spec else None
    )
    faults = _parse_faults(spec["faults"], protocol) if "faults" in spec else None
    params, overrides = _parse_params(spec.get("params", {}), protocol)
    p_success = _get_number(
        spec, "p_success", "spec", default=1.0, minimum=0.0, maximum=1.0
    )
    return CompiledSpec(
        spec=copy.deepcopy(dict(spec)),
        name=name,
        description=description,
        protocol=protocol,
        protocol_options=dict(protocol_options),
        mode=mode,
        hierarchy=hierarchy,
        ordered_topics=ordered_topics,
        is_chain=is_chain,
        params=params,
        overrides=overrides,
        p_success=float(p_success),
        population=population,
        publications=publications,
        failures=failures,
        partition=partition,
        latency=latency,
        faults=faults,
        dynamic=dynamic,
        bootstrap=bootstrap,
        campaign=campaign,
    )


#: Process-local memo of compiled specs, keyed by :func:`spec_digest`.
#: Bounded LRU: a sweep touches one base spec plus one variant per swept
#: value, so a handful of entries covers a whole sweep; the bound only
#: guards against unbounded growth across many different sweeps in one
#: long-lived process.
_COMPILE_CACHE: OrderedDict[str, CompiledSpec] = OrderedDict()
_COMPILE_CACHE_LIMIT = 32


def compile_spec_cached(spec: Mapping) -> CompiledSpec:
    """:func:`compile_spec`, memoized per :func:`spec_digest`.

    This is what makes pool workers cheap: every cell of a sweep reaches
    :func:`run_spec` in one of a few long-lived worker processes, and
    with the memo the spec validates and compiles once per worker and
    distinct spec digest — not once per cell, nor once per sweep when
    one pool serves several. Safe because a :class:`CompiledSpec` is treated
    as immutable after compilation (``run(seed)`` builds fresh per-seed
    state every call).
    """
    key = spec_digest(spec)
    cached = _COMPILE_CACHE.get(key)
    if cached is not None:
        _COMPILE_CACHE.move_to_end(key)
        return cached
    compiled = compile_spec(spec)
    _COMPILE_CACHE[key] = compiled
    if len(_COMPILE_CACHE) > _COMPILE_CACHE_LIMIT:
        _COMPILE_CACHE.popitem(last=False)
    return compiled


def run_spec(spec: Mapping, seed: int = 0) -> dict[str, float]:
    """Compile, build and run ``spec`` for one seed; a pure function of
    ``(spec, seed)`` — same inputs, bit-identical metrics, any process.

    Compilation is memoized per spec digest (:func:`compile_spec_cached`),
    so repeated calls with the same spec — the shape of every sweep cell
    in a pool worker — pay the validation cost once."""
    return compile_spec_cached(spec).run(seed)


# ----------------------------------------------------------------------
# Spec manipulation, digests, loading
# ----------------------------------------------------------------------
def spec_with(spec: Mapping, path: str, value: Any) -> dict:
    """``spec`` with the dotted ``path`` set to ``value``.

    Paths address nested mappings (``"failures.alive_fraction"``);
    missing intermediate mappings are created, so sweeping a field of an
    absent optional section still works (validation of the completed
    section happens at compile time).

    Only the mappings on the path are copied, so ``spec`` is left as it
    was; sub-mappings off the path are shared with it. Specs are values
    (nothing assigns into one in place), and :func:`compile_spec`
    deep-copies what it keeps (``CompiledSpec.spec``), so an edit of a
    shared sub-mapping never reaches a compiled or memoised spec.
    """
    parts = path.split(".")
    if not path or any(not part for part in parts):
        raise ConfigError(f"invalid spec path {path!r}")
    result = node = dict(spec)
    for part in parts[:-1]:
        child = node.get(part)
        if child is None:
            child = {}
        elif not isinstance(child, dict):
            raise ConfigError(
                f"spec path {path!r}: {part!r} is not a mapping"
            )
        node[part] = dict(child)
        node = node[part]
    node[parts[-1]] = value
    return result


def metrics_digest(metrics) -> str:
    """SHA-256 hex digest of a metrics dict (or list of them).

    Canonical JSON (sorted keys, no whitespace), so two runs digest
    equal iff their metrics are bit-identical.
    """
    payload = json.dumps(
        metrics, sort_keys=True, separators=(",", ":"), default=float
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def spec_digest(spec: Mapping) -> str:
    """SHA-256 hex digest of a spec mapping in canonical JSON.

    Two specs digest equal iff they are the same plain data — the
    identity key for the compile memo (:func:`compile_spec_cached`) and
    for artifact-store run keys
    (:class:`~repro.experiments.artifacts.ArtifactStore`).
    """
    from repro.experiments.artifacts import canonical_json

    return hashlib.sha256(canonical_json(dict(spec)).encode("utf-8")).hexdigest()


def load_spec(ref: str) -> dict:
    """Load a spec from a JSON file path or a bundled preset name."""
    path = pathlib.Path(ref)
    if path.suffix == ".json" or path.is_file():
        if not path.is_file():
            raise ConfigError(f"spec file {ref!r} not found")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"spec file {ref!r} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(loaded, dict):
            raise ConfigError(
                f"spec file {ref!r} must contain a JSON object"
            )
        return loaded
    from repro.workloads.presets import load_preset

    return load_preset(ref)


# ----------------------------------------------------------------------
# Repetition and sweeping (bit-identical for any worker count)
# ----------------------------------------------------------------------
def _scenario_cell(_run_index: int, seed: int, *, spec: dict) -> dict[str, float]:
    return run_spec(spec, seed)


def run_scenario(
    spec: Mapping,
    *,
    runs: int = 1,
    master_seed: int = 0,
    executor: ExecutorSpec = None,
    progress: ProgressFn | None = None,
    label: str | None = None,
) -> list[dict[str, float]]:
    """Run ``spec`` ``runs`` times with derived seeds; per-run metrics.

    Run ``j`` uses ``derive_seed(master_seed, f"{label}/{j}")``; cells
    run on ``executor`` (None = serial; ``"pool:N"`` or an Executor
    instance) and the result list is identical for every
    backend and worker count. Aggregate with
    :func:`~repro.experiments.runner.aggregate_runs`.
    """
    from repro.experiments.runner import SweepCell, grouped_progress, run_cells

    compiled = compile_spec_cached(spec)
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    label = label or f"scenario/{compiled.name}"
    cells = [
        SweepCell(arg=j, seed_name=f"{label}/{j}", describe=f"run={j}")
        for j in range(runs)
    ]
    return run_cells(
        functools.partial(_scenario_cell, spec=compiled.spec),
        cells,
        master_seed=master_seed,
        executor=executor,
        on_result=grouped_progress(progress, [float(j) for j in range(runs)], 1),
    )


def _sweep_spec_cell(
    value: Any, seed: int, *, spec: dict, sweep_field: str
) -> dict[str, float]:
    return run_spec(spec_with(spec, sweep_field, value), seed)


def sweep_scenario(
    spec: Mapping,
    sweep_field: str,
    values: Sequence[Any],
    *,
    runs: int = 3,
    master_seed: int = 0,
    executor: ExecutorSpec = None,
    progress: ProgressFn | None = None,
    label: str | None = None,
) -> SweepResult:
    """Sweep ``spec`` over any dotted field; aggregated metrics per value.

    Numeric grids go through :func:`~repro.experiments.runner.run_sweep`
    unchanged; non-numeric values (protocol names, failure kinds, ...) skip
    only its finite-grid check — same cell scheduler, same
    ``{label}/{value}/{j}`` seed naming — so both are bit-identical across
    executors and worker counts. ``executor`` is None (serial),
    ``"pool:N"`` (a pool built for this sweep and closed when it returns
    or raises) or an Executor instance, which stays open, so one
    :class:`~repro.experiments.executor.PoolExecutor` can serve several
    sweeps.
    """
    from repro.experiments.runner import run_sweep, sweep_values

    if not values:
        raise ConfigError("sweep values must not be empty")
    base = dict(spec)
    # Validate every point spec eagerly in the parent: a typo'd field or a
    # bad value should fail before any worker spins up. Through the memo,
    # so a serial cell finds its point compiled and a re-run of the sweep
    # (every cell a cache hit, say) compiles nothing.
    for value in values:
        compile_spec_cached(spec_with(base, sweep_field, value))
    numeric = all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in values
    )
    name = base.get("name", "spec")
    return (run_sweep if numeric else sweep_values)(
        functools.partial(_sweep_spec_cell, spec=base, sweep_field=sweep_field),
        list(values),
        runs=runs,
        master_seed=master_seed,
        label=label or f"scenario/{name}/{sweep_field}",
        executor=executor,
        progress=progress,
    )
