"""Multiple supertopics (§VIII extension): one topic, two parent feeds.

``.sports.football`` is filed both under ``.sports`` (its path parent) and
under ``.news`` (a linked second supertopic). Per the paper's concluding
remarks, each football process simply keeps one supertopic table per
parent — a row per parent in its group's columns, drawn by the static
system's one build over a topic graph with a link;
a match report then climbs BOTH branches — sports desks and news desks
each receive it, the root receives it exactly once despite the diamond,
and ``.news``-only events never leak into ``.sports``.

Run:  python examples/multi_inheritance.py
"""

from repro.core import DaMulticastSystem
from repro.topics import Topic

ROOT = Topic.parse(".")
NEWS = Topic.parse(".news")
SPORTS = Topic.parse(".sports")
FOOTBALL = Topic.parse(".sports.football")


def main() -> None:
    system = DaMulticastSystem(mode="static", seed=21, p_success=0.9)
    system.add_group(ROOT, 5)
    system.add_group(NEWS, 20)
    system.add_group(SPORTS, 20)
    system.add_group(FOOTBALL, 60)
    system.link(FOOTBALL, NEWS)  # second supertopic: multiple inheritance
    system.finalize_static_membership()

    # a static group is one block actor over its members' table rows
    football_process = system.group(FOOTBALL)[0]
    actor = system.group_actor(FOOTBALL)
    print("supertopic tables of one .sports.football process:")
    tables = actor.tables.super_rows_of(football_process.pid - actor.base)
    for parent, (target, pids) in zip(system.hierarchy.parents_of(FOOTBALL), tables):
        print(f"  parent {parent.name:<9} -> {len(pids)} contacts in "
              f"{target.name}")
    print(f"  membership state: {football_process.memory_footprint} entries "
          "(topic table + one table per parent)")

    event = system.publish(FOOTBALL, payload="cup final report")
    system.run_until_idle()
    print("\nmatch report published on .sports.football:")
    for topic in (FOOTBALL, SPORTS, NEWS, ROOT):
        print(f"  {topic.name:<18} delivery "
              f"{system.delivered_fraction(event, topic):6.1%}")

    # the tracker records each (event, process) delivery once; copies
    # reach the root group along both sides of the diamond
    receivers = system.tracker.receivers(event.event_id)
    root = system.group_pids(ROOT)
    delivered = sum(pid in receivers for pid in root)
    sent_up = " and ".join(
        f"{system.stats.events_sent_between(parent, ROOT)} from {parent.name}"
        for parent in (SPORTS, NEWS)
    )
    print(f"  {delivered} of {len(root)} root processes delivered it once "
          f"each; copies sent up: {sent_up} (diamond deduplicated)")

    bulletin = system.publish(NEWS, payload="election bulletin")
    system.run_until_idle()
    print("\nelection bulletin published on .news:")
    for topic in (NEWS, ROOT, SPORTS, FOOTBALL):
        print(f"  {topic.name:<18} delivery "
              f"{system.delivered_fraction(bulletin, topic):6.1%}")
    print("  (.sports and .football stay clean — no parasite deliveries)")


if __name__ == "__main__":
    main()
