"""The "flat" gossip membership algorithm of [10] (Kermarrec et al.).

daMulticast delegates topic-table maintenance to this protocol (§V-A.1:
"we rely on an underlying gossip-based membership algorithm to populate and
maintain the consistency of this table. This underlying algorithm is the
'flat' membership algorithm presented in [10] which uses tables of size
``(b+1)·ln(S)``").

The implementation follows the standard decentralized partial-view design:

* **Join** — the joiner announces itself to a contact; the contact answers
  with a view sample (filling the joiner's table) and forwards the
  announcement with a TTL so the joiner lands in several views.
* **Shuffle** — periodically, each member exchanges uniform view samples
  with one random partner; both merge, evicting uniformly at random when
  over capacity. This keeps views converging to uniform samples of the
  group, the property [10]'s reliability analysis requires.
* **Expiry** — a partner that never answers a shuffle within
  ``shuffle_timeout`` is removed from the view ("replacing the failed ones
  with the fresh ones", footnote 5).
* **Piggybacking** — every gossip message can carry supertopic-table
  entries supplied by the owner (§V-A.2's optimization); received entries
  are handed to the owner's consumer callback.

The class is transport-agnostic: the owner injects ``send``, ``multicast``
and the engine, so the same code runs under any network/failure
configuration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError
from repro.membership.view import PartialView, ProcessDescriptor
from repro.net.control import JoinRequest, MembershipGossip
from repro.net.message import Message
from repro.sim.clock import Clock, PeriodicTask
from repro.topics.topic import Topic

SendFn = Callable[[int, Message], None]
MulticastFn = Callable[[list[int], Message], None]
SuperSampleFn = Callable[[], tuple[ProcessDescriptor, ...]]
SuperMergeFn = Callable[[tuple[ProcessDescriptor, ...]], None]


@dataclass(frozen=True, slots=True)
class FlatMembershipConfig:
    """Tuning knobs of the flat membership protocol.

    ``capacity`` is the table size — use
    :meth:`repro.core.params.TopicParams.table_capacity` for the paper's
    ``(b+1)·log(S)``. ``shuffle_length`` entries are exchanged per shuffle;
    ``join_ttl`` bounds join-announcement forwarding; ``join_fanout`` is
    how many view members each hop forwards a join to.
    """

    capacity: int
    shuffle_interval: float = 1.0
    shuffle_length: int = 3
    shuffle_timeout: float = 3.0
    join_ttl: int = 3
    join_fanout: int = 2
    suspicion_duration: float | None = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {self.capacity}")
        if self.shuffle_interval <= 0:
            raise ConfigError("shuffle_interval must be > 0")
        if self.shuffle_length < 1:
            raise ConfigError("shuffle_length must be >= 1")
        if self.shuffle_timeout <= 0:
            raise ConfigError("shuffle_timeout must be > 0")
        if self.join_ttl < 0:
            raise ConfigError("join_ttl must be >= 0")
        if self.join_fanout < 0:
            raise ConfigError("join_fanout must be >= 0")
        if self.suspicion_duration is not None and self.suspicion_duration <= 0:
            raise ConfigError("suspicion_duration must be > 0 when set")

    @property
    def effective_suspicion_duration(self) -> float:
        """How long a failed shuffle partner stays barred from the view.

        Without suspicion, a dead member's descriptor circulates forever in
        gossip samples (hearsay resurrects it right after eviction). The
        default bar of ``10 × shuffle_interval`` lets every live member
        detect and tombstone a corpse before anyone re-admits it, so dead
        entries wash out of the group's views — the "replacing the failed
        ones with the fresh ones" behaviour of the paper's MERGE.
        """
        if self.suspicion_duration is not None:
            return self.suspicion_duration
        return 10.0 * self.shuffle_interval


class FlatMembership:
    """One process's participation in its group's membership protocol."""

    # Fixed attribute set: large dynamic-mode populations instantiate one
    # of these per process, and the per-instance __dict__ was measurable
    # against the view it wraps.
    __slots__ = (
        "owner", "group", "config", "_engine", "_rng", "_send",
        "_multicast", "_super_sample_provider", "_super_sample_consumer",
        "view", "_pending_shuffles", "_tombstones", "_task", "started",
        "_last_nonce",
    )

    def __init__(
        self,
        owner: ProcessDescriptor,
        group: Topic,
        config: FlatMembershipConfig,
        engine: Clock,
        rng: random.Random,
        send: SendFn,
        *,
        multicast: MulticastFn,
        super_sample_provider: SuperSampleFn | None = None,
        super_sample_consumer: SuperMergeFn | None = None,
    ):
        self.owner = owner
        self.group = group
        self.config = config
        self._engine = engine
        self._rng = rng
        self._send = send
        self._multicast = multicast
        self._super_sample_provider = super_sample_provider
        self._super_sample_consumer = super_sample_consumer
        self.view = PartialView(config.capacity)
        self._pending_shuffles: dict[int, int] = {}  # nonce -> partner pid
        #: a reply echoes the nonce to the member that drew it, so nonces
        #: only have to be unique per member (0 = no reply to match)
        self._last_nonce = 0
        self._tombstones: dict[int, float] = {}  # pid -> suspicion expiry
        self._task: PeriodicTask | None = None
        self.started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, contact: ProcessDescriptor | None = None) -> None:
        """Start shuffling; optionally announce ourselves via ``contact``."""
        if self.started:
            return
        self.started = True
        if contact is not None and contact.pid != self.owner.pid:
            self.view.add(contact, self._rng)
            self._send(
                contact.pid,
                JoinRequest(
                    sender=self.owner.pid,
                    joiner=self.owner,
                    ttl=self.config.join_ttl,
                ),
            )
        self._task = self._engine.every(
            self.config.shuffle_interval,
            self._shuffle_once,
            initial_delay=self.config.shuffle_interval
            * (0.5 + 0.5 * self._rng.random()),  # desynchronize members
        )

    # ------------------------------------------------------------------
    # Periodic shuffle
    # ------------------------------------------------------------------
    def _shuffle_once(self) -> None:
        partner = self.view.sample(1, self._rng, exclude=(self.owner.pid,))
        if not partner:
            return
        target = partner[0]
        nonce = self._last_nonce = self._last_nonce + 1
        self._pending_shuffles[nonce] = target.pid
        self._engine.schedule(
            self.config.shuffle_timeout, lambda: self._expire_shuffle(nonce)
        )
        self._send(target.pid, self._gossip_message(nonce, reply_expected=True))

    def _expire_shuffle(self, nonce: int) -> None:
        partner = self._pending_shuffles.pop(nonce, None)
        if partner is not None:
            # No reply within the timeout: treat the partner as failed,
            # free its slot, and bar hearsay re-admission for a while so
            # the corpse's descriptor washes out of circulation.
            self.view.remove(partner)
            self._tombstones[partner] = (
                self._engine.now + self.config.effective_suspicion_duration
            )

    def _gossip_message(self, nonce: int, reply_expected: bool) -> MembershipGossip:
        sample = self.view.sample(
            self.config.shuffle_length, self._rng, exclude=()
        )
        # Always advertise ourselves so partners learn live members.
        entries = tuple(sample) + (self.owner,)
        super_sample: tuple[ProcessDescriptor, ...] = ()
        if self._super_sample_provider is not None:
            super_sample = tuple(self._super_sample_provider())
        return MembershipGossip(
            sender=self.owner.pid,
            group=self.group,
            view_sample=entries,
            super_sample=super_sample,
            reply_expected=reply_expected,
            nonce=nonce,
        )

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> bool:
        """Consume membership traffic; returns False for foreign messages."""
        if isinstance(message, JoinRequest):
            # A direct message is proof of life: lift any suspicion.
            self._tombstones.pop(message.sender, None)
            self._tombstones.pop(message.joiner.pid, None)
            self._on_join(message)
            return True
        if isinstance(message, MembershipGossip) and message.group == self.group:
            self._tombstones.pop(message.sender, None)
            self._on_gossip(message)
            return True
        return False

    def _on_join(self, message: JoinRequest) -> None:
        joiner = message.joiner
        if joiner.pid != self.owner.pid:
            self.view.add(joiner, self._rng)
        # Answer with a view sample so the joiner fills its table quickly.
        self._send(joiner.pid, self._gossip_message(nonce=0, reply_expected=False))
        if message.ttl > 0 and self.config.join_fanout > 0:
            targets = self.view.sample(
                self.config.join_fanout,
                self._rng,
                exclude=(self.owner.pid, joiner.pid, message.sender),
            )
            if targets:
                self._multicast(
                    [target.pid for target in targets],
                    JoinRequest(
                        sender=self.owner.pid, joiner=joiner, ttl=message.ttl - 1
                    ),
                )

    def _on_gossip(self, message: MembershipGossip) -> None:
        self._merge_entries(message.view_sample)
        if message.super_sample and self._super_sample_consumer is not None:
            self._super_sample_consumer(message.super_sample)
        if message.reply_expected:
            self._send(
                message.sender,
                self._gossip_message(nonce=message.nonce, reply_expected=False),
            )
        elif message.nonce:
            self._pending_shuffles.pop(message.nonce, None)

    def _merge_entries(
        self, descriptors: tuple[ProcessDescriptor, ...]
    ) -> None:
        now = self._engine.now
        # Lazily purge expired tombstones.
        self._tombstones = {
            pid: expiry for pid, expiry in self._tombstones.items() if expiry > now
        }
        for descriptor in descriptors:
            if descriptor.pid == self.owner.pid:
                continue
            if descriptor.pid in self._tombstones:
                continue  # suspected failed: reject hearsay re-admission
            self.view.add(descriptor, self._rng)
