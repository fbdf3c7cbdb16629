"""Reliability queries over a :class:`~repro.metrics.collector.DeliveryTracker`.

These implement the paper's measured quantities:

* Figs. 10–11's y-axis — "percentage of processes receiving a message" per
  group (:func:`delivered_fraction`, restricted to alive processes because
  a stillborn process cannot receive anything by definition),
* §VI-D's reliability — "the probability that every process interested in
  topic Ti receives a given event": a run in which
  :func:`delivered_fraction` reads 1.0, estimated over repeated runs,
* §I's "parasite messages" — deliveries of events the receiving process
  never subscribed to (:func:`parasite_deliveries`; zero for daMulticast by
  construction, nonzero for broadcast-style baselines).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.core.events import EventId
from repro.metrics.collector import DeliveryTracker
from repro.topics.topic import Topic


def delivered_fraction(
    tracker: DeliveryTracker,
    event_id: EventId,
    group_pids: Iterable[int],
    is_alive: Callable[[int], bool] = lambda pid: True,
) -> float:
    """Fraction of (alive) ``group_pids`` that delivered ``event_id``.

    Returns 1.0 when no alive member remains — an empty group, or a group
    whose every member is dead: with nobody left who *could* receive,
    reliability is trivially met. The all-dead case matters under heavy
    stillborn failure (Fig. 10's low alive fractions can kill a whole
    small group).

    O(alive) per call: :meth:`DeliveryTracker.receivers` is a read-only
    view over the live per-event dict, so each membership probe is one
    dict lookup — no per-call copy of the delivery records.
    """
    alive = [pid for pid in group_pids if is_alive(pid)]
    if not alive:
        return 1.0
    receivers = tracker.receivers(event_id)
    got_it = sum(1 for pid in alive if pid in receivers)
    return got_it / len(alive)


def parasite_deliveries(
    tracker: DeliveryTracker,
    interests: Mapping[int, Topic],
) -> int:
    """Count deliveries of events outside the receiver's subscription.

    ``interests`` maps pid → subscribed topic; a delivery of event ``e`` to
    ``pid`` is parasitic when ``interests[pid]`` does *not* include
    ``e.topic`` (the process was never interested in it). Processes absent
    from ``interests`` are treated as interested in nothing, so every
    delivery to them counts as parasitic — this is how the broadcast
    baseline's overhead is measured.
    """
    parasites = 0
    for event in tracker.events:
        for pid in tracker.receivers(event.event_id):
            topic = interests.get(pid)
            if topic is None or not topic.includes(event.topic):
                parasites += 1
    return parasites
