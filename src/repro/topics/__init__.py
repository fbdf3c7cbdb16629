"""Topic model: hierarchical topic names and topic hierarchies.

The paper organizes events in a topic hierarchy (e.g. ``.dsn04.reviewers``)
and exploits the *inclusion* relation between topics: ``Ta`` includes ``Tb``
when ``Ta`` is a (direct or indirect) supertopic of ``Tb``. This package
provides:

* :class:`~repro.topics.topic.Topic` — an immutable dotted-path topic name
  with super/sub-topic navigation, one instance per path (equality is
  identity),
* :class:`~repro.topics.hierarchy.TopicHierarchy` — an explicit registry of
  the topics that exist in a system: a rooted tree, or a rooted DAG once
  :meth:`~repro.topics.hierarchy.TopicHierarchy.link` gives a topic
  several direct supertopics (the multi-inheritance extension sketched in
  the paper's conclusion, §VIII),
* :mod:`~repro.topics.builders` — convenience constructors (chains,
  hierarchies from dotted names, balanced trees).
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "repro.topics.topic": ("ROOT", "Topic"),
        "repro.topics.hierarchy": ("TopicHierarchy",),
        "repro.topics.builders": ("chain", "balanced_tree", "from_names"),
    },
)
