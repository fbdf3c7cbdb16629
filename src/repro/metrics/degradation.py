"""Graceful-degradation metrics: delivery ratio over time, per topic.

The link-fault layer (:mod:`repro.net.faults`) turns "gossip survives
loss" into something measurable; this module supplies the measurements:

* :func:`delivery_ratio_series` — a sliding-window delivery ratio over
  *event time*: events are bucketed by publish time into fixed windows of
  width ``window``, and each window reports
  ``Σ delivered / Σ expected-at-publish`` over the events published in
  it. Deliveries are attributed to the window their event was published
  in (however late they arrive), so a window's ratio answers "of what was
  asked for then, how much was ultimately delivered";
* :func:`degradation_summary` — per-topic delivered fractions, the raw
  material of delivered-fraction-vs-loss-rate curves.

The series folds the full
:class:`~repro.metrics.collector.DeliveryTracker`'s per-event records on
demand; the summary also reads the
:class:`~repro.metrics.streaming.StreamingDeliveryTracker`'s per-topic
aggregates. The denominator in every ratio is the ``expected`` count
recorded at publish time — the event's *intended receivers*, i.e. how
many processes the protocol would deliver it to over a perfect network —
so a fault-free run scores 1.0. Events without a recorded count are
excluded from ratio denominators.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MetricsError
from repro.topics.topic import Topic
from repro.validation import check_window


@dataclass(frozen=True)
class WindowPoint:
    """One sliding window of the delivery-ratio series."""

    #: window covers event publish times in [start, end)
    start: float
    end: float
    #: events published in the window
    published: int
    #: Σ expected receivers over those events (0 when none recorded)
    expected: int
    #: deliveries of those events, whenever they arrived
    delivered: int
    #: delivered / expected; None when no expected counts were recorded
    ratio: float | None


def _points_from_cells(
    cells: dict[int, tuple[int, int, int]], window: float
) -> list[WindowPoint]:
    points = []
    for index in sorted(cells):
        published, expected, delivered = cells[index]
        points.append(
            WindowPoint(
                start=index * window,
                end=(index + 1) * window,
                published=published,
                expected=expected,
                delivered=delivered,
                ratio=(delivered / expected) if expected else None,
            )
        )
    return points


def delivery_ratio_series(tracker, window: float) -> list[WindowPoint]:
    """The sliding-window delivery-ratio series of one run (full tracker).

    Only windows with at least one published event appear (gossip
    simulations are bursty; all-empty gaps carry no signal and would
    dominate the list at fine widths).
    """
    if getattr(tracker, "mode", "full") == "streaming":
        raise MetricsError(
            "delivery_ratio_series needs per-event records: run with the "
            "full DeliveryTracker (tracker='full')"
        )
    width = check_window(window, "window", error=MetricsError)
    cells: dict[int, list[int]] = {}
    for event in tracker.events:
        index = int(event.published_at // width)
        cell = cells.get(index)
        if cell is None:
            cell = cells[index] = [0, 0, 0]
        cell[0] += 1
        expected = tracker.expected(event.event_id)
        if expected is not None:
            cell[1] += expected
        cell[2] += tracker.delivery_count(event.event_id)
    return _points_from_cells(
        {index: tuple(cell) for index, cell in cells.items()}, width
    )


def degradation_summary(tracker) -> dict[str, dict[str, float | int | None]]:
    """Per-topic delivered fractions from either tracker flavour.

    Returns ``{topic name: {"published", "expected", "delivered",
    "delivered_fraction"}}`` where ``delivered_fraction`` is
    ``delivered / Σ expected-at-publish`` (None when no expected counts
    were recorded for the topic). Sweeping this against a loss-rate grid
    yields the delivered-fraction-vs-loss-rate reliability curves.
    """
    summary: dict[str, dict[str, float | int | None]] = {}
    if getattr(tracker, "mode", "full") == "streaming":
        for topic in tracker.topics():
            stats = tracker.topic_stats(topic)
            summary[topic.name] = {
                "published": stats.published,
                "expected": stats.expected_sum,
                "delivered": stats.delivered,
                "delivered_fraction": (
                    stats.delivered / stats.expected_sum
                    if stats.expected_sum else None
                ),
            }
        return summary
    totals: dict[Topic, list[int]] = {}
    for event in tracker.events:
        cell = totals.get(event.topic)
        if cell is None:
            cell = totals[event.topic] = [0, 0, 0]
        cell[0] += 1
        expected = tracker.expected(event.event_id)
        if expected is not None:
            cell[1] += expected
        cell[2] += tracker.delivery_count(event.event_id)
    for topic in sorted(totals):
        published, expected, delivered = totals[topic]
        summary[topic.name] = {
            "published": published,
            "expected": expected,
            "delivered": delivered,
            "delivered_fraction": (
                delivered / expected if expected else None
            ),
        }
    return summary
