"""repro — a full reproduction of *Data-Aware Multicast* (DSN 2004).

daMulticast is a decentralized gossip multicast for hierarchical
topic-based publish/subscribe: processes form one gossip group per topic,
events are gossiped epidemically inside a group and probabilistically
handed up the topic hierarchy, and no process ever receives an event of a
topic it did not subscribe to.

Public API highlights
---------------------
* :class:`repro.core.DaMulticastSystem` — build and run a deployment,
* :class:`repro.core.DaMulticastConfig` / :class:`repro.core.TopicParams`
  — the per-topic reliability/message-complexity trade-off knobs,
* :class:`repro.topics.Topic` / :class:`repro.topics.TopicHierarchy` —
  the topic model,
* :mod:`repro.baselines` — the paper's three comparison algorithms,
* :mod:`repro.analysis` — the closed-form complexity/reliability results,
* :mod:`repro.experiments` — regenerate every figure and table.

See README.md for a quickstart and DESIGN.md for the system inventory.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__ = lazy_exports(
    __name__,
    {
        "repro.core.system": ("DaMulticastSystem",),
        "repro.core.process": ("DaMulticastProcess",),
        "repro.core.params": ("DaMulticastConfig", "TopicParams"),
        "repro.core.events": ("Event", "EventId"),
        "repro.topics.topic": ("Topic", "ROOT"),
        "repro.topics.hierarchy": ("TopicHierarchy",),
    },
)
__all__.append("__version__")
