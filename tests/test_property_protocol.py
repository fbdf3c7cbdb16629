"""Property-based tests: end-to-end protocol invariants on random systems.

For arbitrary small chain systems and failure patterns, one publication
must satisfy the paper's structural guarantees:

* no parasite delivery (enforced by a raising invariant in the process),
* at-most-once delivery per process,
* events never skip levels on the way up,
* on a perfect network every interested process receives the event,
* intra-group message count is bounded by S·fanout(S) per group.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import DaMulticastConfig, DaMulticastSystem, TopicParams
from repro.failures import StillbornFailures
from repro.topics.builders import chain

chain_sizes = st.lists(st.integers(1, 25), min_size=1, max_size=4)


def build_static(
    sizes, seed, p_success=1.0, failed=frozenset(), delivery_callback=None
):
    topics = chain(len(sizes) - 1, prefix="t")
    config = DaMulticastConfig(
        default_params=TopicParams(b=3, c=3, g=3, a=1, z=2)
    )
    system = DaMulticastSystem(
        config=config,
        seed=seed,
        p_success=p_success,
        mode="static",
        failure_model=StillbornFailures(failed) if failed else None,
        delivery_callback=delivery_callback,
    )
    for topic, size in zip(topics, sizes):
        system.add_group(topic, size)
    system.finalize_static_membership()
    return system, topics


#: Sizes for which delivery is *deterministic* on a perfect network: the
#: fan-out ``ceil(log S)+3`` covers the whole group (S ≤ 6) and p_a is
#: forced to 1 below, so no probabilistic choice can lose the event.
tiny_chain_sizes = st.lists(st.integers(1, 6), min_size=1, max_size=4)


@given(tiny_chain_sizes, st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_perfect_network_total_delivery(sizes, seed):
    topics = chain(len(sizes) - 1, prefix="t")
    config = DaMulticastConfig(
        # a == z makes p_a = 1; g large makes p_sel = 1 in tiny groups.
        default_params=TopicParams(b=3, c=3, g=50, a=2, z=2)
    )
    system = DaMulticastSystem(config=config, seed=seed, mode="static")
    for topic, size in zip(topics, sizes):
        system.add_group(topic, size)
    system.finalize_static_membership()
    event = system.publish(topics[-1])
    system.run_until_idle()
    for topic in topics:
        assert system.delivered_fraction(event, topic) == 1.0


@given(chain_sizes, st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_at_most_once_delivery(sizes, seed):
    deliveries = []
    system, topics = build_static(
        sizes,
        seed,
        p_success=0.8,
        delivery_callback=lambda process, event: deliveries.append(
            (process.pid, event.event_id)
        ),
    )
    event = system.publish(topics[-1])
    system.run_until_idle()
    assert len(deliveries) == len(set(deliveries))
    assert len(deliveries) == system.tracker.delivery_count(event.event_id)


@given(chain_sizes, st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_events_climb_one_level_at_a_time(sizes, seed):
    system, topics = build_static(sizes, seed, p_success=0.9)
    system.publish(topics[-1])
    system.run_until_idle()
    for (src, dst), count in system.stats.inter_group_sent.items():
        if count:
            assert dst == src.super_topic or (
                # levels may be skipped only when the intermediate group
                # is empty — impossible here since all sizes >= 1.
                False
            )


@given(chain_sizes, st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_intra_messages_bounded_by_s_times_fanout(sizes, seed):
    system, topics = build_static(sizes, seed)
    params = system.config.default_params
    system.publish(topics[-1])
    system.run_until_idle()
    for topic, size in zip(topics, sizes):
        sent = system.stats.events_sent_in_group(topic)
        assert sent <= size * params.fanout(size)


@given(
    chain_sizes,
    st.integers(0, 2**32),
    st.floats(0.2, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_failures_never_break_invariants(sizes, seed, alive_fraction):
    import random

    rng = random.Random(seed)
    total = sum(sizes)
    all_pids = list(range(total))
    n_failed = int(total * (1 - alive_fraction))
    failed = frozenset(rng.sample(all_pids, n_failed))
    system, topics = build_static(sizes, seed, p_success=0.8, failed=failed)
    publishers = [
        p
        for p in system.group(topics[-1])
        if system.harness.is_alive(p.pid)
    ]
    if not publishers:
        return
    event = system.publish(topics[-1], publisher=publishers[0])
    system.run_until_idle()
    # Dead processes never deliver.
    for pid in failed:
        assert not system.tracker.received_by(event.event_id, pid)
    # Nothing exceeds the message bound even under failures.
    for topic, size in zip(topics, sizes):
        sent = system.stats.events_sent_in_group(topic)
        assert sent <= size * system.config.default_params.fanout(size)
