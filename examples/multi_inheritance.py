"""Multiple supertopics (§VIII extension): one topic, two parent feeds.

``.sports.football`` is filed both under ``.sports`` (its path parent) and
under ``.news`` (a linked second supertopic). Per the paper's concluding
remarks, each football process simply keeps one supertopic table per
parent; a match report then climbs BOTH branches — sports desks and news
desks each receive it, the root receives it exactly once despite the
diamond, and ``.news``-only events never leak into ``.sports``.

Run:  python examples/multi_inheritance.py
"""

from repro.core.multiparent import MultiParentSystem
from repro.topics import Topic, TopicDag

ROOT = Topic.parse(".")
NEWS = Topic.parse(".news")
SPORTS = Topic.parse(".sports")
FOOTBALL = Topic.parse(".sports.football")


def main() -> None:
    dag = TopicDag()
    dag.add(FOOTBALL)
    dag.add(NEWS)
    dag.link(FOOTBALL, NEWS)  # second supertopic: multiple inheritance

    system = MultiParentSystem(dag, seed=21, p_success=0.9)
    system.add_group(ROOT, 5)
    system.add_group(NEWS, 20)
    system.add_group(SPORTS, 20)
    system.add_group(FOOTBALL, 60)
    system.finalize_static_membership()

    football_process = system.group(FOOTBALL)[0]
    print("supertopic tables of one .sports.football process:")
    for parent, table in football_process.super_tables.items():
        print(f"  parent {parent.name:<9} -> {len(table)} contacts in "
              f"{table.target_topic.name}")

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
