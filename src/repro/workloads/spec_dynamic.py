"""The ``dynamic`` and ``campaign`` spec sections and the dynamic-mode build.

Only a ``mode: "dynamic"`` spec has these sections: :func:`compile_spec
<repro.workloads.spec.compile_spec>` imports this module in its dynamic
branch and ``CompiledSpec.build`` in its dynamic one, so a static spec
compiles and runs without it, and without the churn and campaign models
it imports.

* ``dynamic`` (:func:`_parse_dynamic`) — the run settings (warmup,
  settle, the :class:`~repro.core.params.DaMulticastConfig` timers, the
  bootstrap overlay's degree) and the bootstrap arrival plan (immediate,
  staggered or waves; ``by_topic`` or ``interleaved`` order), which
  :func:`_join_plan` realizes per population.
* ``campaign`` (:func:`_parse_campaign`) — timed
  :class:`~repro.failures.injector.FailureCampaign` actions.
* :func:`_build_dynamic` — a full-protocol run: joins scheduled on the
  plan, publications shifted by the warmup, a horizon derived from the
  last join, publication and action plus the settle time.

The module reads its sections with the spec module's validation
primitives, so it moves into a ``workloads/spec/`` package as it is.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Any, Mapping, Sequence

from repro.errors import ConfigError
from repro.failures.churn import ChurnSchedule
from repro.failures.injector import FailureCampaign
from repro.sim.rng import derive_seed
from repro.topics.hierarchy import TopicHierarchy
from repro.topics.topic import Topic
from repro.workloads.publications import ScheduledPublication
from repro.workloads.spec import (
    BuiltScenario,
    CompiledSpec,
    _get_number,
    _parse_topic_ref,
    _reject_unknown_keys,
    _require_mapping,
    _take_kind,
)

#: Dynamic-mode run settings (the ``dynamic`` section's defaults):
#: publications replay at ``warmup + t``, the run ends ``settle`` after the
#: last scheduled activity, and the remaining knobs feed
#: :class:`~repro.core.params.DaMulticastConfig` / the bootstrap overlay.
_DYNAMIC_DEFAULTS: dict[str, Any] = {
    "warmup": 30.0,
    "settle": 10.0,
    "maintain_interval": 1.0,
    "ping_timeout": 1.0,
    "bootstrap_timeout": 2.0,
    "bootstrap_ttl": 4,
    "overlay_degree": 5,
}

_CAMPAIGN_KINDS = (
    "kill_fraction",
    "kill_super_links",
    "recover",
    "recover_all",
)


def _parse_dynamic(
    section: Mapping, ceiling: int
) -> tuple[dict[str, Any], tuple]:
    """(run settings, bootstrap plan). The settings hold every
    ``_DYNAMIC_DEFAULTS`` key; the plan is ``(order, start, wave_size,
    interval)``: the ``i``-th process in ``order`` joins at
    ``start + (i // wave_size) * interval``, which must be finite for
    every one of the population's ``ceiling`` processes."""
    _require_mapping(section, "dynamic")
    _reject_unknown_keys(
        section, {"bootstrap"} | set(_DYNAMIC_DEFAULTS), "dynamic"
    )
    settings = {
        key: _get_number(
            section, key, "dynamic", default=_DYNAMIC_DEFAULTS[key], minimum=0
        )
        for key in ("warmup", "settle")
    }
    for key in ("maintain_interval", "ping_timeout", "bootstrap_timeout"):
        settings[key] = _get_number(
            section, key, "dynamic", default=_DYNAMIC_DEFAULTS[key], above=0
        )
    for key in ("bootstrap_ttl", "overlay_degree"):
        settings[key] = _get_number(
            section, key, "dynamic",
            default=_DYNAMIC_DEFAULTS[key], minimum=1, integer=True,
        )
    where = "dynamic.bootstrap"
    bootstrap = _require_mapping(
        section.get("bootstrap", {"kind": "immediate"}), where
    )
    kind = _take_kind(bootstrap, ("immediate", "staggered", "waves"), where)
    order = bootstrap.get("order", "by_topic")
    if order not in ("by_topic", "interleaved"):
        raise ConfigError(
            f"{where}: 'order' must be 'by_topic' or 'interleaved', "
            f"got {order!r}"
        )
    if kind == "immediate":
        _reject_unknown_keys(bootstrap, {"kind", "order"}, where)
        return settings, (order, 0.0, 1, 0.0)
    if kind == "staggered":
        _reject_unknown_keys(
            bootstrap, {"kind", "order", "start", "spacing"}, where
        )
        waves = None
    else:
        _reject_unknown_keys(
            bootstrap, {"kind", "order", "start", "wave_size", "interval"}, where
        )
        waves = (
            _get_number(bootstrap, "wave_size", where, minimum=1, integer=True),
            _get_number(bootstrap, "interval", where, above=0),
        )
    start = _get_number(bootstrap, "start", where, default=0.0, minimum=0)
    # staggered: waves of one process, 'spacing' apart
    wave_size, interval = waves or (
        1, _get_number(bootstrap, "spacing", where, minimum=0)
    )
    try:
        last_join = start + (ceiling - 1) // wave_size * interval
    except OverflowError:  # a wave count no float holds
        last_join = math.inf
    if not math.isfinite(last_join):
        key = "spacing" if waves is None else "interval"
        raise ConfigError(
            f"{where}: {key} {interval} puts join {ceiling} of {ceiling} at "
            "an infinite time (start + ⌊(n-1)/wave_size⌋·interval)"
        )
    return settings, (order, start, wave_size, interval)


def _join_plan(
    bootstrap: tuple, counts: Mapping[Topic, int]
) -> list[tuple[float, Topic]]:
    """The bootstrap arrival schedule under plan ``bootstrap`` (what
    :func:`_parse_dynamic` returns): one (join time, topic) per process,
    in join order.

    ``by_topic`` order is root-first (each group fully joins before its
    subgroups start bootstrapping toward it); ``interleaved`` round-robins
    across groups so every wave mixes all hierarchy levels.
    """
    order, start, wave_size, interval = bootstrap
    topics = [
        topic
        for topic in sorted(counts, key=lambda t: (t.depth, t.name))
        if counts[topic] > 0
    ]
    if order == "by_topic":
        sequence = [
            topic for topic in topics for _ in range(counts[topic])
        ]
    else:  # interleaved
        remaining = {topic: counts[topic] for topic in topics}
        sequence = []
        while remaining:
            for topic in topics:
                if remaining.get(topic, 0):
                    sequence.append(topic)
                    remaining[topic] -= 1
                    if not remaining[topic]:
                        del remaining[topic]
    return [
        (start + (index // wave_size) * interval, topic)
        for index, topic in enumerate(sequence)
    ]


def _first_joins(plan: list[tuple[float, Topic]]) -> dict[Topic, float]:
    """Each topic's first join time in a :func:`_join_plan` (whose times
    never decrease: the earliest entry is written last)."""
    return {topic: time for time, topic in reversed(plan)}


def _require_joined(
    joins: tuple[float, Mapping[Topic, float]], topic: Topic, at: float, where: str
) -> None:
    """A ``topic`` publication at ``at`` on the schedule (``warmup + at``
    on the clock) needs a member of ``topic`` to publish from: one must
    have joined by then. ``joins`` is ``(warmup, first join per topic)``."""
    warmup, first = joins
    if warmup + at < first[topic]:
        raise ConfigError(
            f"{where}: a {topic.name} event is due as early as t = "
            f"{warmup + at:g}, before the first {topic.name} member joins at "
            f"t = {first[topic]:g} (dynamic.bootstrap)"
        )


def _publication_check(
    settings: Mapping[str, Any], bootstrap: tuple, fixed: Mapping[Topic, int]
) -> functools.partial:
    """:func:`_require_joined` under a ``fixed`` population's join plan, as
    ``check(topic, at, where)`` for the publications parser."""
    return functools.partial(
        _require_joined,
        (settings["warmup"], _first_joins(_join_plan(bootstrap, fixed))),
    )


def _parse_campaign(
    section: Mapping,
    ordered_topics: tuple[Topic, ...],
    hierarchy: TopicHierarchy,
    is_chain: bool,
) -> tuple[tuple[float, Any], ...]:
    """``(at, action)`` per campaign action; the build schedules it on its
    :class:`FailureCampaign` as ``action(campaign, at)``."""
    _require_mapping(section, "campaign")
    _reject_unknown_keys(section, {"actions"}, "campaign")
    actions = section.get("actions")
    if (
        not isinstance(actions, Sequence)
        or isinstance(actions, str)
        or not actions
    ):
        raise ConfigError(
            "campaign: 'actions' must be a non-empty list of action objects"
        )
    parsed = []
    for index, action in enumerate(actions):
        where = f"campaign.actions[{index}]"
        _require_mapping(action, where)
        kind = _take_kind(action, _CAMPAIGN_KINDS, where)
        at = _get_number(action, "at", where, minimum=0)
        if kind == "kill_fraction":
            _reject_unknown_keys(
                action, {"kind", "at", "fraction", "topic", "level"}, where
            )
            fraction = _get_number(
                action, "fraction", where, minimum=0.0, maximum=1.0
            )
            topic = _parse_topic_ref(action, ordered_topics, hierarchy, is_chain, where)
            call = functools.partial(
                FailureCampaign.kill_fraction, fraction=fraction, topic=topic
            )
        elif kind == "kill_super_links":
            _reject_unknown_keys(action, {"kind", "at", "topic", "level"}, where)
            if "topic" not in action and "level" not in action:
                raise ConfigError(
                    f"{where}: kill_super_links needs a 'topic' or 'level' "
                    "naming the attacked group"
                )
            topic = _parse_topic_ref(action, ordered_topics, hierarchy, is_chain, where)
            call = functools.partial(FailureCampaign.kill_super_links, topic=topic)
        elif kind == "recover":
            _reject_unknown_keys(action, {"kind", "at", "fraction"}, where)
            fraction = _get_number(
                action, "fraction", where, default=1.0, minimum=0.0, maximum=1.0
            )
            call = functools.partial(
                FailureCampaign.recover_fraction, fraction=fraction
            )
        else:  # recover_all
            _reject_unknown_keys(action, {"kind", "at"}, where)
            call = FailureCampaign.recover_all
        parsed.append((at, call))
    return tuple(parsed)


def _build_dynamic(
    compiled: CompiledSpec,
    seed: int,
    counts: Mapping[Topic, int],
    schedule: list[ScheduledPublication],
) -> BuiltScenario:
    """Assemble a full-protocol run of ``compiled``: staggered joins,
    maintenance, optional campaign, publications offset by the warmup,
    horizon-bound.
    """
    settings = dict(compiled.dynamic)
    warmup, settle = settings.pop("warmup"), settings.pop("settle")
    joins = _join_plan(compiled.bootstrap, counts)
    # a seeded population's targets and join order are known here first
    first_joins = (warmup, _first_joins(joins))
    for publication in schedule:
        _require_joined(
            first_joins, publication.topic, publication.time, "publications"
        )
    # Pids are assigned 0..N-1 in join order, so a churn timeline can
    # be realized over the full pid space before any process exists —
    # a pid crashed before its join simply joins dead.
    failure_model = None
    if compiled.failures is not None:
        failure_model = compiled.failures(
            range(sum(counts.values())),
            rng=random.Random(derive_seed(seed, "spec/churn")),
            protected=(),
        )
    elif compiled.campaign is not None:
        failure_model = ChurnSchedule()
    system = compiled._make_system(seed, counts, failure_model, **settings)
    compiled._install_link_models(system, seed)
    for time, topic in joins:
        system.engine.schedule_at(
            time, functools.partial(system.add_process, topic)
        )
    campaign = None
    if compiled.campaign is not None:
        campaign = FailureCampaign(
            system,
            failure_model,
            random.Random(derive_seed(seed, "spec/campaign")),
        )
        for at, action in compiled.campaign:
            action(campaign, at)
    shifted = [
        ScheduledPublication(warmup + publication.time, publication.topic)
        for publication in schedule
    ]
    last_action = (
        max(at for at, _ in compiled.campaign) if compiled.campaign else 0.0
    )
    horizon = (
        max(
            max((time for time, _ in joins), default=0.0),
            max((publication.time for publication in shifted), default=0.0),
            last_action,
        )
        + settle
    )
    return BuiltScenario(
        compiled=compiled,
        seed=seed,
        system=system,
        counts=dict(counts),
        schedule=shifted,
        publishers=None,
        horizon=horizon,
        campaign=campaign,
    )
