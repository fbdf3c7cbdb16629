"""Per-topic protocol parameters and derived quantities.

The paper exposes, for every topic ``Ti`` of the hierarchy, the knobs that
trade message complexity against reliability (§V, §VI-D):

* ``b`` — topic-table size factor: the underlying membership algorithm
  [10] uses tables of size ``(b+1)·log(S_Ti)``,
* ``c`` — gossip fan-out constant: events are forwarded to ``log(S_Ti)+c``
  group members; intra-group reliability is ``e^{-e^{-c}}`` [3],
* ``g`` — expected number of processes self-electing as inter-group links:
  ``p_sel = g/S_Ti``,
* ``a`` — expected supertopic-table recipients per link: each entry is
  chosen with ``p_a = a/z``,
* ``z`` — supertopic-table size (constant, §V-A.1),
* ``τ`` — maintenance threshold: when fewer than ``τ`` superprocesses
  respond, fresh entries are requested (Fig. 6 lines 18–21).

``fanout_log_base`` selects the logarithm used for table sizes and
fan-outs. The analysis requires ``e`` (the Erdős–Rényi threshold), but the
paper's own simulator evidently used base 10 (Fig. 8's scale — see
DESIGN.md, faithfulness note 2), so the paper-scenario experiments override
it to 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigError
from repro.topics.topic import Topic


@dataclass(frozen=True, slots=True)
class TopicParams:
    """The tunable constants of one topic's group (immutable)."""

    b: float = 3.0
    c: float = 5.0
    g: float = 5.0
    a: float = 1.0
    z: int = 3
    tau: int = 1
    fanout_log_base: float = math.e

    def __post_init__(self) -> None:
        if self.b < 0:
            raise ConfigError(f"b must be >= 0, got {self.b}")
        if self.c < 0:
            raise ConfigError(f"c must be >= 0, got {self.c}")
        if self.z < 1:
            raise ConfigError(f"z must be >= 1, got {self.z}")
        if not 1 <= self.a <= self.z:
            raise ConfigError(f"need 1 <= a <= z, got a={self.a}, z={self.z}")
        if self.g < 1:
            raise ConfigError(f"g must be >= 1, got {self.g}")
        if not 0 <= self.tau <= self.z:
            raise ConfigError(f"need 0 <= tau <= z, got tau={self.tau}, z={self.z}")
        if self.fanout_log_base <= 1:
            raise ConfigError(
                f"fanout_log_base must be > 1, got {self.fanout_log_base}"
            )
        # a group is a pid range, whose len() is capped at sys.maxsize, so
        # no group reaches 2**63 members: a table capacity finite there is
        # finite for every group
        if not math.isfinite((self.b + 1) * math.log(2**63, self.fanout_log_base)):
            raise ConfigError(
                f"b = {self.b} makes the table capacity (b+1)·log(S) overflow"
            )

    # ------------------------------------------------------------------
    # Derived quantities (all take the group size S at call time, since
    # S is a property of the running system, not of the configuration).
    # ------------------------------------------------------------------
    def p_sel(self, group_size: int) -> float:
        """Self-election probability ``p_sel = g/S`` (clamped to 1)."""
        if group_size < 1:
            raise ConfigError(f"group size must be >= 1, got {group_size}")
        return min(1.0, self.g / group_size)

    @property
    def p_a(self) -> float:
        """Per-supertable-entry send probability ``p_a = a/z``."""
        return self.a / self.z

    def fanout(self, group_size: int) -> int:
        """Intra-group gossip fan-out ``log(S)+c`` (Fig. 7 line 9).

        At least 1 whenever the group has anyone else to talk to; the log of
        a singleton group is 0 and fan-out is then just ``c``.
        """
        if group_size < 1:
            raise ConfigError(f"group size must be >= 1, got {group_size}")
        log_term = math.log(group_size, self.fanout_log_base) if group_size > 1 else 0.0
        return max(1, math.ceil(log_term + self.c))

    def table_capacity(self, group_size: int) -> int:
        """Topic-table size ``(b+1)·log(S)`` of the [10] membership."""
        if group_size < 1:
            raise ConfigError(f"group size must be >= 1, got {group_size}")
        if group_size == 1:
            return 1
        log_term = math.log(group_size, self.fanout_log_base)
        return max(1, math.ceil((self.b + 1) * log_term))


@dataclass(frozen=True)
class DaMulticastConfig:
    """System-wide configuration: defaults plus per-topic overrides.

    The paper stresses that every constant can be chosen *per topic in the
    hierarchy* ("provides the application a means to control, for each
    topic in a hierarchy, the trade-off between the message complexity and
    the reliability"). ``params_for`` resolves a topic to its parameters.

    An override applies to its own topic only. The publisher of an event
    always acts as a link (§IV-C: "p1 sends its events to at least one
    process from its super topic table").
    """

    default_params: TopicParams = field(default_factory=TopicParams)
    overrides: Mapping[Topic, TopicParams] = field(default_factory=dict)
    maintain_interval: float = 1.0
    bootstrap_timeout: float = 2.0
    bootstrap_ttl: int = 4
    ping_timeout: float = 1.0

    def __post_init__(self) -> None:
        if self.maintain_interval <= 0:
            raise ConfigError("maintain_interval must be > 0")
        if self.bootstrap_timeout <= 0:
            raise ConfigError("bootstrap_timeout must be > 0")
        if self.bootstrap_ttl < 1:
            raise ConfigError("bootstrap_ttl must be >= 1")
        if self.ping_timeout <= 0:
            raise ConfigError("ping_timeout must be > 0")

    def params_for(self, topic: Topic) -> TopicParams:
        """The parameters governing ``topic``'s group.

        Resolution: the topic's own override, else the defaults.
        """
        return self.overrides.get(topic, self.default_params)
