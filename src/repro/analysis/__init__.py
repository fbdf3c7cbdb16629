"""Closed-form analysis of §VI and the Appendix.

Three modules map one-to-one onto the paper's analysis:

* :mod:`~repro.analysis.complexity` — message complexity (§VI-B, Appendix
  eqs. 2–13) and memory complexity (§VI-C, §VI-E.2) for daMulticast and
  the three baselines;
* :mod:`~repro.analysis.reliability` — the Erdős–Rényi gossip reliability
  ``e^{-e^{-c}}``, the inter-group propagation probability ``pit`` and the
  end-to-end reliability product of eq. (1), plus the baselines'
  reliabilities (§VI-E.3);
* :mod:`~repro.analysis.tuning` — the Appendix equivalence results: the
  ``c1`` daMulticast must use to match each baseline's reliability
  (eqs. 16, 23, 28), the feasibility windows on ``c``, and the supertopic-
  table size bounds under which daMulticast still wins on memory
  (eqs. 19, 25, 30).

:mod:`~repro.analysis.comparison` assembles the §VI-E side-by-side tables.
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "repro.analysis.complexity": (
            "damulticast_messages",
            "broadcast_messages",
            "multicast_messages",
            "hierarchical_messages",
            "damulticast_memory",
            "broadcast_memory",
            "multicast_memory",
            "hierarchical_memory",
        ),
        "repro.analysis.reliability": (
            "atomic_gossip_reliability",
            "effective_fanout_constant",
            "effective_gossip_reliability",
            "intergroup_propagation_probability",
            "damulticast_reliability",
            "damulticast_reliability_paper",
            "broadcast_reliability",
            "multicast_reliability",
            "hierarchical_reliability",
        ),
        "repro.analysis.tuning": (
            "TuningResult",
            "match_broadcast",
            "match_multicast",
            "match_hierarchical",
        ),
        "repro.analysis.comparison": ("comparison_table",),
    },
)
