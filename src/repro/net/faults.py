"""Deterministic link-fault injection: loss, duplication, delay spikes.

The base :class:`~repro.net.network.Network` models crashes, churn and
partitions, but every message that leaves a live sender for a connected
live target arrives exactly once. Gossip's whole claim is probabilistic
reliability on networks that *lose*, *duplicate* and *delay* traffic, so
this module adds a message-level fault layer at the network seam:

* :class:`BernoulliLoss` — i.i.d. loss with probability ``p``;
* :class:`GilbertElliott` — the classic two-state (good/bad) burst-loss
  Markov chain, one chain per link;
* :class:`DuplicateModel` — with probability ``p`` the message is
  delivered as several identical copies (the protocol layer's dedup is
  what keeps this harmless);
* :class:`DelaySpike` — with probability ``p`` the sampled latency is
  inflated (multiplied by ``factor`` or increased by ``extra``);
* :class:`FaultPipeline` — stage composition (loss, then duplication,
  then delay);
* :class:`LinkClassFaults` — per-link-class dispatch mirroring
  :class:`~repro.net.latency.LinkClassLatency` (``intra``/``inter``).

Fault models implement one method::

    transmit(sender, target, delay, rng) -> (copies, delay)

``copies == 0`` means the message is lost; ``copies > 1`` means that many
identical copies are scheduled (all at the returned ``delay``); a changed
``delay`` is a delay spike. The network records each effect in
:class:`~repro.net.stats.NetworkStats` by reason (``loss`` /
``duplicate`` / ``delay_spike``).

Determinism
-----------
Fault draws come from a **dedicated RNG** handed to
:meth:`~repro.net.network.Network.install_faults` (the scenario layer
derives it from the ``spec/faults`` stream), never from the network's own
stream. Consequences:

* with no fault model installed the hook is skipped entirely — zero
  draws, bit-identical to pre-fault-layer trajectories;
* an installed-but-lossless model (``BernoulliLoss(0.0)``) still draws
  from the faults stream, but since that stream is independent of every
  other stream, the rest of the trajectory is unchanged — sweeping a loss
  grid from 0 gives a true no-fault baseline at ``p = 0``;
* per-target draws happen in target order inside a multicast, exactly as
  the equivalent loop of sends would.

:class:`GilbertElliott` keeps one chain state per ``(sender, target)``
link actually consulted — memory is O(distinct faulted links), which is
why the bundled ``lossy-wan`` preset scopes it to the (few) ``inter``
links rather than the whole gossip mesh.
"""

from __future__ import annotations

import random
from typing import Mapping, Protocol, Sequence, runtime_checkable

from repro.errors import ConfigError
from repro.validation import check_finite, check_probability

#: A fault outcome: (number of copies to deliver, delay to deliver at).
FaultOutcome = "tuple[int, float]"


@runtime_checkable
class LinkFaultModel(Protocol):
    """Decides the fate of one transmission that passed every other stage."""

    def transmit(
        self, sender: int, target: int, delay: float, rng: random.Random
    ) -> tuple[int, float]:
        """Return ``(copies, delay)`` for this transmission.

        ``copies == 0`` loses the message, ``copies == 1`` delivers it
        normally, ``copies > 1`` delivers that many identical copies; the
        returned ``delay`` replaces the sampled latency.
        """
        ...  # pragma: no cover - protocol


class NoFaults:
    """The explicit no-op model: never consulted, never draws.

    :meth:`Network.install_faults` treats ``NoFaults`` exactly like
    ``None`` — the per-message hook stays uninstalled, so a run with
    ``NoFaults`` is provably draw-free and bit-identical to a run built
    before the fault layer existed.
    """

    def transmit(
        self, sender: int, target: int, delay: float, rng: random.Random
    ) -> tuple[int, float]:
        return (1, delay)


class BernoulliLoss:
    """Independent loss: each transmission is lost with probability ``p``."""

    def __init__(self, p: float):
        self.p = check_probability(p, "loss probability")

    def transmit(
        self, sender: int, target: int, delay: float, rng: random.Random
    ) -> tuple[int, float]:
        if rng.random() < self.p:
            return (0, delay)
        return (1, delay)


class GilbertElliott:
    """Two-state Markov burst loss (the Gilbert-Elliott channel).

    Each link is a chain over states *good* and *bad*; a transmission is
    lost with ``loss_good`` / ``loss_bad`` depending on the link's current
    state, then the state transitions (good→bad with ``p_good_bad``,
    bad→good with ``p_bad_good``). State is kept per ``(sender, target)``
    pair, created lazily on first consultation and drawn from the chain's
    *stationary distribution* — not pinned to good. Gossip consults most
    links only a handful of times (often once: super-link hand-offs pick
    fresh targets per round), and an always-good initial state would make
    single-consult links effectively lossless regardless of parameters;
    stationary initialization gives every consultation the stationary
    loss rate while repeated consultations of one link stay bursty.

    The stationary bad-state occupancy is
    ``p_good_bad / (p_good_bad + p_bad_good)`` and the stationary loss
    rate follows as ``π_good·loss_good + π_bad·loss_bad``
    (:meth:`stationary_loss_rate`), which is what the statistical test
    pins.

    Every consultation makes exactly two draws (loss, transition) plus
    one extra initialization draw the first time a link is seen,
    regardless of outcomes, so trajectories never depend on float edge
    cases.
    """

    def __init__(
        self,
        p_good_bad: float,
        p_bad_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ):
        self.p_good_bad = check_probability(p_good_bad, "p_good_bad")
        self.p_bad_good = check_probability(p_bad_good, "p_bad_good")
        self.loss_good = check_probability(loss_good, "loss_good")
        self.loss_bad = check_probability(loss_bad, "loss_bad")
        if self.p_good_bad + self.p_bad_good <= 0.0:
            raise ConfigError(
                "Gilbert-Elliott chain needs p_good_bad + p_bad_good > 0 "
                "(both zero means the chain never moves; use BernoulliLoss)"
            )
        #: (sender, target) → True when the link is in the bad state
        self._bad: dict[tuple[int, int], bool] = {}

    def stationary_loss_rate(self) -> float:
        """The long-run loss probability of one link."""
        pi_bad = self.p_good_bad / (self.p_good_bad + self.p_bad_good)
        return (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad

    def transmit(
        self, sender: int, target: int, delay: float, rng: random.Random
    ) -> tuple[int, float]:
        link = (sender, target)
        bad = self._bad.get(link)
        if bad is None:
            bad = rng.random() < self.p_good_bad / (
                self.p_good_bad + self.p_bad_good
            )
        lost = rng.random() < (self.loss_bad if bad else self.loss_good)
        flip = rng.random()
        if bad:
            if flip < self.p_bad_good:
                bad = False
        elif flip < self.p_good_bad:
            bad = True
        self._bad[link] = bad
        return ((0, delay) if lost else (1, delay))


class DuplicateModel:
    """Duplication: with probability ``p`` deliver 2..``max_copies`` copies.

    The copy count is drawn uniformly from ``[2, max_copies]``; all copies
    share one delay, so inside a multicast they stay in the same
    latency-class batch entry (the duplicated pid simply appears more than
    once in the batch). Receiver-side dedup — the protocol ``seen`` sets,
    or the columnar per-event bitmasks — absorbs the extras.
    """

    def __init__(self, p: float, max_copies: int = 2):
        self.p = check_probability(p, "duplication probability")
        if isinstance(max_copies, bool) or not isinstance(max_copies, int):
            raise ConfigError(
                f"max_copies must be an integer, got {max_copies!r}"
            )
        if max_copies < 2:
            raise ConfigError(f"max_copies must be >= 2, got {max_copies}")
        self.max_copies = max_copies

    def transmit(
        self, sender: int, target: int, delay: float, rng: random.Random
    ) -> tuple[int, float]:
        if rng.random() < self.p:
            return (rng.randint(2, self.max_copies), delay)
        return (1, delay)


class DelaySpike:
    """Latency spikes: with probability ``p`` the delay is inflated.

    Exactly one of ``factor`` (multiply the sampled delay; >= 1) or
    ``extra`` (add a constant; >= 0) must be given. Under the paper's
    zero-latency synchronous rounds a ``factor`` has nothing to multiply —
    use ``extra`` there (the bundled ``lossy-wan`` preset does).
    """

    def __init__(
        self,
        p: float,
        factor: float | None = None,
        extra: float | None = None,
    ):
        self.p = check_probability(p, "delay-spike probability")
        if (factor is None) == (extra is None):
            raise ConfigError(
                "DelaySpike needs exactly one of 'factor' or 'extra', "
                f"got factor={factor!r}, extra={extra!r}"
            )
        if factor is not None:
            factor = check_finite(factor, "delay-spike factor")
            if factor < 1.0:
                raise ConfigError(
                    f"delay-spike factor must be >= 1, got {factor}"
                )
        if extra is not None:
            extra = check_finite(extra, "delay-spike extra")
            if extra < 0.0:
                raise ConfigError(
                    f"delay-spike extra must be >= 0, got {extra}"
                )
        self.factor = factor
        self.extra = extra

    def transmit(
        self, sender: int, target: int, delay: float, rng: random.Random
    ) -> tuple[int, float]:
        if rng.random() < self.p:
            if self.factor is not None:
                return (1, delay * self.factor)
            return (1, delay + self.extra)
        return (1, delay)


class FaultPipeline:
    """Compose fault stages in order (canonically loss → dup → delay).

    Stages are consulted left to right; a stage that loses the message
    short-circuits the rest (later stages make no draws for that
    transmission — documented pipeline semantics, deterministic either
    way). Copy counts from multiple duplicating stages multiply; the
    delay threads through every stage.
    """

    def __init__(self, stages: Sequence[LinkFaultModel]):
        stages = tuple(stages)
        if not stages:
            raise ConfigError("FaultPipeline needs at least one stage")
        for stage in stages:
            if not callable(getattr(stage, "transmit", None)):
                raise ConfigError(
                    f"fault pipeline stage must be a fault model, got {stage!r}"
                )
        self.stages = stages

    def transmit(
        self, sender: int, target: int, delay: float, rng: random.Random
    ) -> tuple[int, float]:
        copies = 1
        for stage in self.stages:
            stage_copies, delay = stage.transmit(sender, target, delay, rng)
            if stage_copies == 0:
                return (0, delay)
            copies *= stage_copies
        return (copies, delay)


class LinkClassFaults:
    """Per-link-class faults: a default model plus named-class overrides.

    Mirrors :class:`~repro.net.latency.LinkClassLatency`: the class →
    model table only. The network classifies a fan-out once (its bound
    link classifier, shared with the latency model) and asks
    :meth:`model_for` per class; unclassifiable links use the default
    model. A class mapped to :class:`NoFaults` (or a default of
    ``NoFaults``) makes no draws for its links, so scoping faults to
    ``inter`` links leaves the intra gossip stream untouched.
    """

    def __init__(
        self,
        default: LinkFaultModel,
        overrides: Mapping[str, LinkFaultModel] | None = None,
    ):
        if not callable(getattr(default, "transmit", None)):
            raise ConfigError(
                f"default must be a fault model, got {default!r}"
            )
        self.default = default
        self.overrides = dict(overrides or {})
        for name, model in self.overrides.items():
            if not isinstance(name, str) or not name:
                raise ConfigError(
                    f"link class names must be non-empty strings, got {name!r}"
                )
            if not callable(getattr(model, "transmit", None)):
                raise ConfigError(
                    f"override {name!r} must be a fault model, got {model!r}"
                )

    def model_for(self, link_class: str | None) -> LinkFaultModel:
        """The model of one link class (the default for None or a class
        without an override)."""
        return self.overrides.get(link_class, self.default)

    def transmit(
        self, sender: int, target: int, delay: float, rng: random.Random
    ) -> tuple[int, float]:
        """An unclassified link goes through the default model."""
        return self.default.transmit(sender, target, delay, rng)


#: Shared no-op instance (semantically identical to installing nothing).
NO_FAULTS = NoFaults()
