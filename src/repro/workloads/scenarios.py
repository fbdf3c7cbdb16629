"""The §VII simulation scenario, as a typed spec factory.

"The number of levels t in the topic hierarchy is set to 3 (T0, T1, T2
...). The number of subscribers S_Ti is 1000 for T2, 100 for T1 and 10
for T0. b is set to 3 for all groups. c is equal to 5 for all groups. g
is set to 5 for all groups. a is equal to 1 for all groups. z is equal
to 3 for all groups. The probability for an event to be received is set
to an arbitrary value of 0.85. ... the events disseminated in the
simulation belong to topic T2."

:class:`PaperScenario` is the typed front end of the ``paper-vii`` preset:
``spec()`` states its fields as a plain scenario spec and ``build()`` hands
that spec to the one build path, :meth:`repro.workloads.spec.CompiledSpec.build`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigError
from repro.topics.builders import chain
from repro.topics.topic import Topic
from repro.workloads.spec import BuiltScenario, compile_spec_cached


@dataclass(frozen=True)
class PaperScenario:
    """All §VII constants in one place (overridable per experiment)."""

    #: group sizes from the root (T0) down to the publication topic
    sizes: Sequence[int] = (10, 100, 1000)
    b: float = 3.0
    c: float = 5.0
    g: float = 5.0
    a: float = 1.0
    z: int = 3
    p_succ: float = 0.85
    #: 10 matches the paper's own simulator scale (Fig. 8 peaks at ≈8000 =
    #: 1000·(log10(1000)+5) messages; DESIGN.md note 2); math.e is theory-faithful
    fanout_log_base: float = 10.0
    #: index (into the chain, root-first) of the publication topic;
    #: -1 = the bottom-most topic, the paper's choice
    publish_level: int = -1
    _PARAMS = ("b", "c", "g", "a", "z", "fanout_log_base")  # the TopicParams fields §VII fixes

    def __post_init__(self) -> None:
        if len(self.sizes) < 1:
            raise ConfigError("scenario needs at least one level")

    @property
    def depth(self) -> int:
        """Chain depth below the root (sizes has depth+1 entries)."""
        return len(self.sizes) - 1

    def topics(self) -> list[Topic]:
        """The chain topics, root first: [T0, T1, ..., Tt]."""
        return chain(self.depth, prefix="t")

    def spec(self, *, alive_fraction: float = 1.0, failure_mode: str = "stillborn") -> dict:
        """This scenario as a plain spec (``paper-vii`` at the defaults).

        ``failure_mode``: ``"stillborn"`` (Figs. 8-10: a random ``1-alive_fraction`` of
        processes dead from t=0, publisher protected) or ``"dynamic"`` (Fig. 11: everyone
        alive, each transmission independently blocked with probability ``1-alive_fraction``).
        """
        return {
            "protocol": "daMulticast",
            "topics": {"kind": "chain", "depth": self.depth, "prefix": "t"},
            "subscriptions": {"kind": "per_level", "counts": list(self.sizes)},
            "publications": {"kind": "single", "level": self.publish_level},
            "failures": {"kind": failure_mode, "alive_fraction": alive_fraction},
            "params": {name: getattr(self, name) for name in self._PARAMS},
            "p_success": self.p_succ,
        }

    def build(
        self, *, seed: int, alive_fraction: float = 1.0, failure_mode: str = "stillborn"
    ) -> BuiltScenario:
        """A built, failure-armed, finalized static system for one seed."""
        spec = self.spec(alive_fraction=alive_fraction, failure_mode=failure_mode)
        return compile_spec_cached(spec).build(seed)


def delivered_fractions(built: BuiltScenario, alive_only: bool = False) -> dict[Topic, float]:
    """Figs. 10/11: fraction of each group that delivered the first event.

    The paper's y-axis counts *all* members (the dead cannot receive, which keeps
    the curves under the diagonal); ``alive_only=True`` counts among survivors.
    """
    return {
        topic: built.system.delivered_fraction(built.published[0], topic, alive_only=alive_only)
        for topic in built.compiled.ordered_topics
    }
