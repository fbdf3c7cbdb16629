"""Message latency models.

The paper's simulator runs synchronous rounds, which corresponds to
:data:`ZERO_LATENCY` (deliveries happen "within the round", i.e. at the same
simulation time but causally after the send). The other models support the
dynamic-protocol experiments where timeouts and staleness matter.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Protocol, Sequence

from repro.errors import ConfigError
from repro.validation import check_finite


class LatencyModel(Protocol):
    """Samples a one-way message delay."""

    def sample(self, rng: random.Random) -> float:
        """Return a non-negative delay."""
        ...  # pragma: no cover - protocol


class ConstantLatency:
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float):
        check_finite(delay, "latency")
        if delay < 0:
            raise ConfigError(f"latency must be >= 0, got {delay}")
        self.delay = delay

    def sample(self, rng: random.Random) -> float:
        return self.delay


class UniformLatency:
    """Delay drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float):
        check_finite(low, "latency low")
        check_finite(high, "latency high")
        if low < 0 or high < low:
            raise ConfigError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        # random.uniform's own expression, without its frame
        return self.low + (self.high - self.low) * rng.random()


class ExponentialLatency:
    """Exponentially distributed delay with the given ``mean``.

    A heavier tail than :class:`UniformLatency`; useful for stressing the
    bootstrap timeouts (stragglers arrive after FIND_SUPER_CONTACT widened
    its search).
    """

    def __init__(self, mean: float):
        check_finite(mean, "mean latency")
        if mean <= 0:
            raise ConfigError(f"mean latency must be > 0, got {mean}")
        self.mean = mean

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)


#: Classifies the links of one fan-out: ``(sender, targets)`` → one class
#: name per target, in target order — None where a link cannot be classified
#: yet (e.g. a process that has not joined). Bound once on the network
#: (:meth:`repro.net.network.Network.bind_link_classifier`), which consults
#: it once per transmission and shares the answer between the latency and
#: the fault model.
LinkClassifier = Callable[[int, Sequence[int]], "Sequence[str | None]"]


class LinkClassLatency:
    """Per-link-class latency: a default model plus named-class overrides.

    The dynamic-protocol experiments want different delay regimes per link
    class — e.g. cheap intra-group gossip but slow inter-group links (the
    scenario specs classify links as ``"intra"``/``"inter"`` by the
    endpoints' topics). The model is the class → model table only: the
    network owns the classifier, classifies a fan-out once and asks
    :meth:`model_for` per class. A link the network cannot classify (no
    classifier bound, or the classifier answers None) uses the default
    model, so existing trajectories are untouched.
    """

    def __init__(
        self,
        default: LatencyModel,
        overrides: Mapping[str, LatencyModel] | None = None,
    ):
        if not callable(getattr(default, "sample", None)):
            raise ConfigError(
                f"default must be a latency model, got {default!r}"
            )
        self.default = default
        self.overrides = dict(overrides or {})
        for name, model in self.overrides.items():
            if not isinstance(name, str) or not name:
                raise ConfigError(
                    f"link class names must be non-empty strings, got {name!r}"
                )
            if not callable(getattr(model, "sample", None)):
                raise ConfigError(
                    f"override {name!r} must be a latency model, got {model!r}"
                )

    def model_for(self, link_class: str | None) -> LatencyModel:
        """The model of one link class (the default for None or a class
        without an override)."""
        return self.overrides.get(link_class, self.default)

    def sample(self, rng: random.Random) -> float:
        """An unclassified link samples the default model."""
        return self.default.sample(rng)


#: Shared zero-delay model (the paper's synchronous-round semantics).
ZERO_LATENCY = ConstantLatency(0.0)
