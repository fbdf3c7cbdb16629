"""Event dissemination — Fig. 7's DISSEMINATE and Fig. 5's RECEIVE.

A process disseminating an event ``e_Ti``:

1. **Inter-group hand-off** — with probability ``p_sel = g/S`` it elects
   itself as a link and sends the event to each supertopic-table entry with
   probability ``p_a = a/z`` (so on average ``g`` processes per group act
   as links, each reaching ``a`` superprocesses). The publisher itself
   always acts as a link when ``publisher_always_links`` is set (§IV-C:
   "p1 sends its events to at least one process from its super topic
   table"). Note the paper's pseudo-code writes ``RAND() ≥ p_sel``; the
   analysis (§VI-B) makes clear the election happens *with probability*
   ``p_sel``, which is what we implement (DESIGN.md, note 1).
2. **Intra-group gossip** — it forwards the event to ``log(S)+c`` distinct
   topic-table members (sampling from ``Table − Ω``, Fig. 7 lines 8–14).

RECEIVE (Fig. 5): on the *first* reception of an event, deliver it to the
application and disseminate it; later copies are ignored.

The functions here are pure protocol logic over the narrow, pid-level
:class:`DisseminationPeer` contract, so the same code drives the static
(paper-simulation), columnar and dynamic (full-protocol) hosts. Pid-level
all the way down: both kinds of host draw their gossip targets through one
sampler (:func:`repro.membership.sampling.sample_from`) that hands back
pids — off a :class:`~repro.membership.view.PartialView`'s pid list or off
a pid column — and resolve ``fanout(S)``, ``p_sel(S)`` and ``p_a`` once per
group size, so a forwarder pays for its draws and its fan-out, not for
descriptors or logarithms.
"""

from __future__ import annotations

import random
from typing import Iterable, Protocol, Sequence

from repro.core.events import Event
from repro.core.tables import SuperTopicTable
from repro.net.message import EventMessage, Message, Scope
from repro.topics.topic import Topic


class DisseminationPeer(Protocol):
    """What DISSEMINATE needs from the process running it: pids.

    The host owns its tables (descriptor views, pid columns, one
    supertopic table or one per parent) and its RNG stream, and makes
    Fig. 7's two selections itself; :func:`disseminate` only ever sees the
    chosen pids, builds one message per scope and multicasts it. Hosts
    over descriptor tables make the selections with :func:`elect_links`
    and :meth:`PartialView.sample_pids
    <repro.membership.view.PartialView.sample_pids>`, hosts over pid
    columns with :meth:`ColumnarGroupTables.sample_row
    <repro.membership.columnar.ColumnarGroupTables.sample_row>` — the same
    sampler under both; a host must draw in Fig. 7's order — link election
    and ``p_a`` draws first, gossip sample second — so that every host
    consumes its stream identically.
    """

    pid: int
    topic: Topic
    #: the frozen ``Scope("intra", topic)`` every gossip message carries
    intra_scope: Scope

    def link_targets(
        self, force_link: bool
    ) -> Iterable[tuple[Topic, Sequence[int]]]:
        """Fig. 7 lines 3-7: ``(supertopic, pids)`` per supergroup this
        process hands the event up to — empty unless it elects itself as a
        link (probability ``p_sel``, or ``force_link``); each supertopic
        table entry is then kept with probability ``p_a``."""
        ...  # pragma: no cover - protocol

    def gossip_targets(self) -> Sequence[int]:
        """Fig. 7 lines 8-14: up to ``log(S)+c`` distinct topic-table pids
        (never the process itself)."""
        ...  # pragma: no cover - protocol

    def multicast(
        self, targets: Sequence[int], message: Message
    ) -> None: ...  # pragma: no cover - protocol


def elect_links(
    table: SuperTopicTable,
    p_sel: float,
    p_a: float,
    rng: random.Random,
    force_link: bool,
) -> list[tuple[Topic, list[int]]]:
    """Fig. 7 lines 3-7 over one descriptor ``table``: the
    :meth:`DisseminationPeer.link_targets` of a host that keeps
    :class:`~repro.core.tables.SuperTopicTable` objects, given its group's
    resolved ``p_sel(S)`` and ``p_a``.

    An empty table draws nothing. All entries normally share the table's
    target topic; consecutive runs are grouped so mid-retarget mixtures
    still get one message (and one Fig. 9 accounting scope) per supertopic.
    """
    if table.is_empty:
        return []
    if not (force_link or rng.random() < p_sel):
        return []
    random_draw = rng.random
    links: list[tuple[Topic, list[int]]] = []
    run_topic: Topic | None = None
    run: list[int] = []
    for descriptor in table.descriptors():
        if random_draw() < p_a:
            topic = descriptor.topic
            # group members share one interned Topic; == decides the rest
            if topic is not run_topic and topic != run_topic:
                run_topic, run = topic, []
                links.append((topic, run))
            run.append(descriptor.pid)
    return links


def disseminate(
    peer: DisseminationPeer,
    event: Event,
    *,
    force_link: bool = False,
    arrival_hops: int = 0,
) -> tuple[int, int]:
    """Run Fig. 7's DISSEMINATE on ``peer`` for ``event``.

    ``force_link`` bypasses the ``p_sel`` election (used for the publisher
    when ``publisher_always_links`` is configured). ``arrival_hops`` is the
    transmission count at which ``peer`` obtained the event (0 for the
    publisher); forwarded copies carry ``arrival_hops + 1``. Returns
    ``(intra_sent, inter_sent)`` message counts for diagnostics.

    Both fan-outs are issued as batched multicasts: the peer elects its
    targets first and each scope's pid list then goes out as one
    :meth:`DisseminationPeer.multicast` call sharing one message.
    """
    pid = peer.pid
    next_hops = arrival_hops + 1

    # (1) Hand the event up to the supergroup(s) (Fig. 7 lines 3-7).
    inter_sent = 0
    for super_topic, links in peer.link_targets(force_link):
        peer.multicast(
            links,
            EventMessage(
                sender=pid,
                event=event,
                scope=Scope("inter", peer.topic, super_topic),
                hops=next_hops,
            ),
        )
        inter_sent += len(links)

    # (2) Gossip inside our own group (Fig. 7 lines 8-14).
    targets = peer.gossip_targets()
    if targets:
        peer.multicast(
            targets,
            EventMessage(
                sender=pid,
                event=event,
                scope=peer.intra_scope,
                hops=next_hops,
            ),
        )
    return len(targets), inter_sent


def should_deliver(event: Event, topic: Topic) -> bool:
    """Whether ``event`` is relevant to a subscriber of ``topic``.

    True iff ``topic`` includes the event's publication topic. daMulticast
    only ever routes events to interested processes, so for this protocol
    the predicate always holds — it is asserted at delivery time to *prove*
    the paper's no-parasite-messages claim (§I, property 4) rather than
    assume it.
    """
    return event.is_of_topic(topic)
