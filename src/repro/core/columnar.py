"""ColumnarStaticSystem — the §VII simulator at 10⁵–10⁶ processes.

The static build of :class:`~repro.core.system.DaMulticastSystem`, with
the two settings that scale:

* **one stream per group** — every member of a group draws Fig. 7's
  selections from the group's ``group/<topic>`` stream, one Mersenne state
  per group instead of ~2.5 KB per acting process: statistically
  equivalent gossip, not trajectory-gated against the per-process streams
  of ``DaMulticastSystem(mode="static")`` — the runtime trajectory is
  pinned by its own golden (tests/test_core_columnar.py);
* **the streaming tracker** by default — O(topics) per-topic aggregates
  instead of per-(event, pid) records.

Everything else is the shared static build: one contiguous pid block and
one :class:`~repro.core.group_actor.ColumnarGroupActor` per group, the same
table builder (:func:`~repro.membership.columnar.draw_static_tables`) from
the same ``"static-membership"`` stream, and the same
:func:`~repro.membership.columnar.rows_digest`, pinned by the S=500
construction golden.
"""

from __future__ import annotations

import random

from repro.core.params import DaMulticastConfig
from repro.core.system import DaMulticastSystem
from repro.failures.model import FailureModel
from repro.net.latency import LatencyModel, ZERO_LATENCY
from repro.runtime import SimulationHarness
from repro.topics.topic import Topic


class ColumnarStaticSystem(DaMulticastSystem):
    """``DaMulticastSystem(mode="static")`` drawing from one stream per
    group, with the streaming delivery tracker by default."""

    def __init__(
        self,
        *,
        config: DaMulticastConfig | None = None,
        seed: int = 0,
        p_success: float = 1.0,
        latency: LatencyModel = ZERO_LATENCY,
        failure_model: FailureModel | None = None,
        tracker: str = "streaming",
    ):
        super().__init__(
            config=config,
            mode="static",
            harness=SimulationHarness(
                seed=seed,
                p_success=p_success,
                latency=latency,
                failure_model=failure_model,
                tracker=tracker,
            ),
        )

    def _row_streams(self, topic: Topic, size: int) -> list[random.Random]:
        """Every member's selection stream is the group's."""
        return [self.harness.rngs.stream(f"group/{topic.name}")] * size
