"""Network accounting: the counters behind every figure of the paper.

The evaluation counts *sent* messages (Fig. 8: events sent inside each
group, Fig. 9: events crossing group boundaries) and the metrics layer
derives reliability from application deliveries. :class:`NetworkStats`
therefore tracks, per message kind: sent / delivered / dropped-with-reason,
plus the topic-scoped counters for event messages.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.net.message import EventMessage, Message
from repro.topics.topic import Topic

#: Drop reasons used by :class:`repro.net.network.Network`.
DROP_CHANNEL_LOSS = "channel_loss"
DROP_DEAD_TARGET = "dead_target"
DROP_DEAD_SENDER = "dead_sender"
DROP_PERCEIVED_FAILED = "perceived_failed"
DROP_PARTITIONED = "partitioned"
DROP_FAULT_LOSS = "fault_loss"

#: Every drop reason, in a stable order (scenario metrics emit one
#: fixed-key counter per reason so repeated runs always aggregate).
DROP_REASONS = (
    DROP_CHANNEL_LOSS,
    DROP_DEAD_TARGET,
    DROP_DEAD_SENDER,
    DROP_PERCEIVED_FAILED,
    DROP_PARTITIONED,
    DROP_FAULT_LOSS,
)

#: Injected-fault reasons recorded by the link-fault layer
#: (:mod:`repro.net.faults`): a ``loss`` is additionally a drop with
#: reason :data:`DROP_FAULT_LOSS`; duplicates count the *extra* copies;
#: delay spikes count inflated-latency transmissions.
FAULT_LOSS = "loss"
FAULT_DUPLICATE = "duplicate"
FAULT_DELAY_SPIKE = "delay_spike"

FAULT_REASONS = (FAULT_LOSS, FAULT_DUPLICATE, FAULT_DELAY_SPIKE)


@dataclass
class NetworkStats:
    """Counters over everything the network transported or dropped."""

    sent_by_kind: Counter = field(default_factory=Counter)
    delivered_by_kind: Counter = field(default_factory=Counter)
    dropped_by_reason: Counter = field(default_factory=Counter)
    dropped_by_kind: Counter = field(default_factory=Counter)
    #: Fig. 8 — events *sent* while gossiping inside each group.
    intra_group_sent: Counter = field(default_factory=Counter)
    #: Fig. 9 — events *sent* from a group to its supergroup, per edge.
    inter_group_sent: Counter = field(default_factory=Counter)
    #: §IV-A load distribution — event messages sent per process.
    events_sent_by_sender: Counter = field(default_factory=Counter)
    #: Injected link faults by reason (loss / duplicate / delay_spike).
    faults_by_reason: Counter = field(default_factory=Counter)

    # ------------------------------------------------------------------
    # Recording (called by the network)
    # ------------------------------------------------------------------
    def record_sent(self, message: Message) -> None:
        """Count a send attempt."""
        self.sent_by_kind[message.kind] += 1
        if isinstance(message, EventMessage):
            self.events_sent_by_sender[message.sender] += 1
            scope = message.scope
            if scope.kind == "intra":
                self.intra_group_sent[scope.group] += 1
            else:
                self.inter_group_sent[(scope.group, scope.super_group)] += 1

    def record_dropped(self, message: Message, reason: str) -> None:
        """Count a drop with its cause."""
        self.dropped_by_reason[reason] += 1
        self.dropped_by_kind[message.kind] += 1

    def record_fault(self, reason: str, count: int = 1) -> None:
        """Count ``count`` injected link faults of one reason.

        A fault loss is *also* recorded as a drop (reason
        :data:`DROP_FAULT_LOSS`) by the network, so the drop ledger stays
        complete; duplicates and delay spikes only appear here.
        """
        if count <= 0:
            return
        self.faults_by_reason[reason] += count

    # ------------------------------------------------------------------
    # Bulk recording (the multicast fast path — one call per fan-out)
    # ------------------------------------------------------------------
    def record_sent_many(self, message: Message, count: int) -> None:
        """Count ``count`` send attempts of one message in a single pass.

        Equivalent to ``count`` calls to :meth:`record_sent` (a multicast
        pays one transmission per destination in the paper's accounting),
        but classifies the message once instead of per destination.
        """
        if count <= 0:
            return
        self.sent_by_kind[message.kind] += count
        if isinstance(message, EventMessage):
            # dict.get: a first send never enters Counter.__missing__
            senders = self.events_sent_by_sender
            senders[message.sender] = senders.get(message.sender, 0) + count
            scope = message.scope
            if scope.kind == "intra":
                self.intra_group_sent[scope.group] += count
            else:
                self.inter_group_sent[(scope.group, scope.super_group)] += count

    def record_fanouts(self, fanouts: list[tuple[Message, int, int]]) -> None:
        """Count the clean-channel fan-outs of one wave in a single pass.

        ``fanouts`` holds ``(message, sent, scheduled)`` per fan-out, in the
        order they were issued; the channel lost ``sent - scheduled`` of
        each. Equivalent to :meth:`record_sent_many` and a
        :data:`DROP_CHANNEL_LOSS` :meth:`record_dropped_many` per fan-out,
        but each run of consecutive fan-outs of one kind and scope is one
        update per counter; only the per-sender load is per fan-out.
        """
        senders = self.events_sent_by_sender
        runs = []  # [first message, sent, lost] per run
        run_key = run = None
        for message, sent, scheduled in fanouts:
            key = getattr(message, "scope", message.kind)
            if key is not run_key:
                run_key = key
                run = [message, 0, 0]
                runs.append(run)
                event = isinstance(message, EventMessage)
            run[1] += sent
            run[2] += sent - scheduled
            if event:
                # dict.get: a first send never enters Counter.__missing__
                senders[message.sender] = senders.get(message.sender, 0) + sent
        for message, sent, lost in runs:
            kind = message.kind
            self.sent_by_kind[kind] += sent
            if lost:
                self.dropped_by_reason[DROP_CHANNEL_LOSS] += lost
                self.dropped_by_kind[kind] += lost
            if isinstance(message, EventMessage):
                scope = message.scope
                if scope.kind == "intra":
                    self.intra_group_sent[scope.group] += sent
                else:
                    self.inter_group_sent[(scope.group, scope.super_group)] += sent

    def record_delivered_many(self, message: Message, count: int) -> None:
        """Count ``count`` deliveries of one message in a single pass."""
        if count <= 0:
            return
        self.delivered_by_kind[message.kind] += count

    def record_dropped_many(self, message: Message, reason: str, count: int) -> None:
        """Count ``count`` same-reason drops of one message in a single pass."""
        if count <= 0:
            return
        self.dropped_by_reason[reason] += count
        self.dropped_by_kind[message.kind] += count

    # ------------------------------------------------------------------
    # Queries (used by metrics/experiments)
    # ------------------------------------------------------------------
    @property
    def total_sent(self) -> int:
        """All send attempts, any kind."""
        return sum(self.sent_by_kind.values())

    @property
    def total_dropped(self) -> int:
        """All drops, any kind."""
        return sum(self.dropped_by_kind.values())

    def events_sent_in_group(self, group: Topic) -> int:
        """Fig. 8 quantity: event messages sent while gossiping in ``group``."""
        return self.intra_group_sent[group]

    def events_sent_between(self, group: Topic, super_group: Topic) -> int:
        """Fig. 9 quantity: event messages sent from ``group`` to its supergroup."""
        return self.inter_group_sent[(group, super_group)]

    def event_messages_sent(self) -> int:
        """All event messages sent (intra + inter), the §VI-B quantity."""
        return self.sent_by_kind["event"]

    def overhead_messages_sent(self) -> int:
        """Non-event traffic (membership, bootstrap, probes)."""
        return self.total_sent - self.sent_by_kind["event"]

    def as_dict(self) -> dict[str, dict]:
        """Plain-dict snapshot (stable keys) for reports and tests."""
        return {
            "sent_by_kind": dict(self.sent_by_kind),
            "delivered_by_kind": dict(self.delivered_by_kind),
            "dropped_by_reason": dict(self.dropped_by_reason),
            "faults_by_reason": dict(self.faults_by_reason),
            "intra_group_sent": {
                topic.name: count for topic, count in self.intra_group_sent.items()
            },
            "inter_group_sent": {
                f"{src.name}->{dst.name}": count
                for (src, dst), count in self.inter_group_sent.items()
            },
        }
