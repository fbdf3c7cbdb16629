"""Property-based tests: the simulation engine's ordering guarantees."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim import Engine


@given(st.lists(st.floats(0.0, 100.0), min_size=0, max_size=40))
@settings(max_examples=150)
def test_callbacks_fire_in_nondecreasing_time_order(delays):
    engine = Engine()
    fired: list[float] = []
    for delay in delays:
        engine.schedule(delay, lambda: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=30))
def test_now_never_goes_backwards(delays):
    engine = Engine()
    observed: list[float] = []
    for delay in delays:
        engine.schedule(delay, lambda: observed.append(engine.now))
    engine.run_until_idle()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(
    st.lists(st.floats(0.0, 20.0), min_size=0, max_size=20),
    st.floats(0.0, 25.0),
)
def test_run_until_horizon_is_exact_split(delays, horizon):
    engine = Engine()
    fired: list[float] = []
    for delay in delays:
        engine.schedule(delay, lambda d=delay: fired.append(d))
    engine.run(until=horizon)
    assert all(d <= horizon for d in fired)
    remaining = [d for d in delays if d > horizon]
    assert engine.pending == len(remaining)
    engine.run()
    assert sorted(fired) == sorted(delays)


@given(st.lists(st.integers(0, 30), min_size=1, max_size=25))
def test_same_time_events_fire_fifo(tags):
    engine = Engine()
    fired: list[int] = []
    for tag in tags:
        engine.schedule(1.0, lambda tag=tag: fired.append(tag))
    engine.run()
    assert fired == tags


@given(
    st.lists(st.floats(0.0, 10.0), min_size=2, max_size=20),
    st.data(),
)
def test_cancellation_is_exact(delays, data):
    engine = Engine()
    fired: list[int] = []
    handles = [
        engine.schedule(delay, lambda i=i: fired.append(i))
        for i, delay in enumerate(delays)
    ]
    cancel_indices = data.draw(
        st.sets(st.integers(0, len(delays) - 1), max_size=len(delays))
    )
    for index in cancel_indices:
        handles[index].cancel()
    engine.run()
    assert set(fired) == set(range(len(delays))) - cancel_indices
