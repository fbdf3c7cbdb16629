"""Gossip-based membership: the substrate daMulticast builds on.

The paper relies on "the 'flat' membership algorithm presented in [10]"
(Kermarrec, Massoulié, Ganesh — *Probabilistic Reliable Dissemination in
Large-Scale Systems*) "which uses tables of size ``(b+1)·ln(S)``". This
package implements:

* :class:`~repro.membership.view.ProcessDescriptor` /
  :class:`~repro.membership.view.PartialView` — bounded membership tables
  with uniform random eviction and sampling,
* :class:`~repro.membership.flat.FlatMembership` — the dynamic gossip
  membership (join dissemination, periodic view shuffles, failure expiry,
  and the §V-A.2 piggybacking hook for supertopic-table entries),
* :mod:`~repro.membership.columnar` — the paper's §VII simulation mode
  where all tables are drawn once at time zero and frozen, stored as pid
  columns per group; both static hosts, §VIII's per-parent tables and the
  baselines draw and read them (beside the historical draws they are
  held to),
* :class:`~repro.membership.overlay.BootstrapOverlay` — the weakly
  consistent global overlay providing ``neighborhood(p)`` for the Fig. 4
  bootstrap search.
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "repro.membership.view": ("ProcessDescriptor", "PartialView"),
        "repro.membership.columnar": (
            "ColumnarGroupTables",
            "ColumnarTableBuilder",
            "ColumnarSuperBuilder",
            "build_group_tables",
        ),
        "repro.membership.flat": ("FlatMembership", "FlatMembershipConfig"),
        "repro.membership.overlay": ("BootstrapOverlay",),
    },
)
