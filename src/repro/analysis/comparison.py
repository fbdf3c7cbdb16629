"""§VI-E side-by-side comparison tables (closed forms).

Builds the three comparison "tables" of §VI-E — message complexity, memory
complexity and reliability — for a chain scenario, in the same rows the
paper discusses. ``repro analysis`` prints these and ``repro compare``
the simulated measurements, so who-wins orderings can be checked
mechanically (``tests/test_sim_vs_analysis.py`` does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis import complexity, reliability
from repro.errors import ConfigError
from repro.metrics.report import Table


@dataclass(frozen=True)
class ChainScenario:
    """A §VI-A chain: group sizes from publication level up to the root.

    The default is the paper's §VII setting (``[1000, 100, 10]``). ``n``
    (total system size) and the hierarchical baseline's cluster layout
    derive from it unless overridden.
    """

    sizes: Sequence[int] = (1000, 100, 10)
    c: float = 5.0
    g: float = 5.0
    a: float = 1.0
    z: int = 3
    p_succ: float = 1.0
    pi: float = 1.0
    n_clusters: int = 10
    log_base: float = math.e

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ConfigError("scenario needs at least one group size")

    @property
    def n(self) -> int:
        """Total processes in the system."""
        return sum(self.sizes)

    @property
    def t(self) -> int:
        """Number of levels in the chain."""
        return len(self.sizes)

    @property
    def cluster_size(self) -> int:
        """Baseline (c) cluster size ``m = n/N`` (at least 1)."""
        return max(1, round(self.n / self.n_clusters))


def comparison_table(scenario: ChainScenario | None = None) -> dict[str, Table]:
    """The three §VI-E tables for ``scenario`` (closed-form values)."""
    s = scenario or ChainScenario()
    common = dict(log_base=s.log_base)

    messages = Table(
        "§VI-E.1 Message complexity (events per publication, closed form)",
        ["algorithm", "messages", "asymptotic"],
    )
    messages.add_row(
        "daMulticast",
        complexity.damulticast_messages(
            s.sizes, c=s.c, g=s.g, a=s.a, z=s.z, p_succ=s.p_succ, **common
        ),
        "O(S_max log S_max)",
    )
    messages.add_row(
        "gossip broadcast (a)",
        complexity.broadcast_messages(s.n, c=s.c, **common),
        "O(n log n)",
    )
    messages.add_row(
        "gossip multicast (b)",
        complexity.multicast_messages(s.sizes, c=s.c, **common),
        "O(S_max log S_max)",
    )
    messages.add_row(
        "hierarchical (c)",
        complexity.hierarchical_messages(
            s.n_clusters, s.cluster_size, c1=s.c, c2=s.c, **common
        ),
        "O(S_max log S_max)",
    )

    memory = Table(
        "§VI-E.2 Memory complexity (entries per process, closed form)",
        ["algorithm", "memory", "tables"],
    )
    memory.add_row(
        "daMulticast",
        complexity.damulticast_memory(
            max(s.sizes), c=s.c, z=s.z, **common
        ),
        2,
    )
    memory.add_row(
        "gossip broadcast (a)",
        complexity.broadcast_memory(s.n, c=s.c, **common),
        1,
    )
    memory.add_row(
        "gossip multicast (b)",
        complexity.multicast_memory(s.sizes, c=s.c, **common),
        s.t,
    )
    memory.add_row(
        "hierarchical (c)",
        complexity.hierarchical_memory(
            s.n_clusters, s.cluster_size, c1=s.c, c2=s.c, **common
        ),
        2,
    )

    rel = Table(
        "§VI-E.3 Reliability (P(all interested receive), closed form)",
        ["algorithm", "reliability"],
    )
    rel.add_row(
        "daMulticast (hop-exact eq. 1)",
        reliability.damulticast_reliability(
            s.sizes, c=s.c, g=s.g, a=s.a, z=s.z, p_succ=s.p_succ, pi=s.pi
        ),
    )
    rel.add_row(
        "daMulticast (paper eq. 1)",
        reliability.damulticast_reliability_paper(
            s.sizes, c=s.c, g=s.g, a=s.a, z=s.z, p_succ=s.p_succ, pi=s.pi
        ),
    )
    rel.add_row(
        "gossip broadcast (a)", reliability.broadcast_reliability(s.c)
    )
    rel.add_row(
        "gossip multicast (b)",
        reliability.multicast_reliability(s.t, s.c),
    )
    rel.add_row(
        "hierarchical (c)",
        reliability.hierarchical_reliability(s.n_clusters, s.c, s.c),
    )

    return {"messages": messages, "memory": memory, "reliability": rel}
