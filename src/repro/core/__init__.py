"""daMulticast — the paper's contribution.

The core package implements §V of the paper:

* :mod:`~repro.core.params` — the per-topic tuning knobs
  (``b, c, g, a, z, τ``) and derived probabilities
  (``p_sel = g/S``, ``p_a = a/z``) with validation,
* :mod:`~repro.core.events` — published events and their identities,
* :mod:`~repro.core.tables` — the topic table and supertopic table with
  the paper's MERGE and CHECK semantics,
* :mod:`~repro.core.group_actor` — Fig. 7's DISSEMINATE, one kernel
  (:func:`~repro.core.group_actor.forward`) both modes call, and the
  §VII simulator's block actor, one per static group, which runs Fig. 5's
  RECEIVE over a seen bitmask per event (it imports nothing of the
  dynamic protocol),
* :mod:`~repro.core.bootstrap` — Fig. 4's FIND_SUPER_CONTACT task,
* :mod:`~repro.core.maintenance` — Fig. 6's KEEP_TABLE_UPDATED task,
* :mod:`~repro.core.process` — the dynamic process gluing the above, and
  its processes' one block actor, which runs RECEIVE as a static group's
  does,
* :mod:`~repro.core.system` — the user-facing facade used by examples
  and experiments; in static mode it also serves §VIII's multiple
  supertopics (:meth:`~repro.runtime.ObjectSystemFacade.link`: one supertopic
  table per direct supertopic),
* :mod:`~repro.core.columnar` — the static build with one stream per
  group and the streaming tracker, for 10⁵–10⁶ processes.
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "repro.core.events": ("Event", "EventId"),
        "repro.core.params": ("TopicParams", "DaMulticastConfig"),
        "repro.core.process": ("DaMulticastProcess",),
        "repro.core.system": ("DaMulticastSystem",),
    },
)
