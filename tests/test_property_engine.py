"""Property-based tests: the simulation engine's ordering guarantees, and
both owners of the call queue held against a reference model."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.net.transport import QueueTransport
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
        engine.cancel(handles[index])
    engine.run()
    assert set(fired) == set(range(len(delays))) - cancel_indices


# ----------------------------------------------------------------------
# Model-based: Engine and QueueTransport against a reference list
# ----------------------------------------------------------------------


class ReferenceQueue:
    """The queue's contract as a plain list: calls fire in ``(time, push
    order)`` order; a cancel takes a queued call's events off ``pending``
    at once and is a no-op on a fired or cancelled call.

    Each call is ``[time, tag, count, children, state]``, its tag its push
    order. A fired call pushes its ``children`` — ``(delay, count)`` pairs
    — from inside the call: at its own time plus the delay on the engine
    (virtual time moves to the call), at the clock's time plus the delay
    on the live queue (the pump does not move the clock).
    """

    def __init__(self, children_at_fire_time: bool):
        self.children_at_fire_time = children_at_fire_time
        self.now = 0.0
        self.calls: list[list] = []
        self.fired: list[int] = []
        self.processed = 0

    @property
    def pending(self) -> int:
        return sum(call[2] for call in self.calls if call[4] == "queued")

    def queued(self) -> list[list]:
        return [call for call in self.calls if call[4] == "queued"]

    def push(self, time: float, count: int, children: list) -> None:
        self.calls.append([time, len(self.calls), count, children, "queued"])

    def cancel(self, tag: int) -> None:
        if self.calls[tag][4] == "queued":
            self.calls[tag][4] = "cancelled"

    def run(self, until: float | None) -> int:
        if until is None:
            # drain: step to the earliest queued time until none is left
            executed = 0
            while queued := self.queued():
                executed += self.run(min(queued)[0])
            return executed
        if not self.children_at_fire_time:
            self.now = until
        executed = 0
        while due := [call for call in self.queued() if call[0] <= until]:
            call = min(due)  # (time, tag): the tag breaks every tie
            call[4] = "fired"
            self.fired.append(call[1])
            executed += call[2]
            if self.children_at_fire_time:
                self.now = call[0]
            for delay, count in call[3]:
                self.push(self.now + delay, count, [])
        self.processed += executed
        self.now = until
        return executed


class EngineUnderTest:
    children_at_fire_time = True

    def __init__(self):
        self.engine = Engine()

    @property
    def now(self) -> float:
        return self.engine.now

    def push(self, delay, fn, args, count, absolute):
        if absolute:
            return self.engine.push(self.engine.now + delay, fn, args, count)
        return self.engine.dispatch(delay, fn, args, count=count)

    def cancel(self, entry) -> None:
        self.engine.cancel(entry)

    def run(self, until) -> int:
        return self.engine.run(until=until)

    @property
    def pending(self) -> int:
        return self.engine.pending

    @property
    def processed(self) -> int:
        return self.engine.processed


class TickClock:
    def __init__(self):
        self.now = 0.0


class QueueUnderTest:
    children_at_fire_time = False

    def __init__(self):
        self.clock = TickClock()
        self.transport = QueueTransport(self.clock)

    @property
    def now(self) -> float:
        return self.clock.now

    def push(self, delay, fn, args, count, absolute):
        return self.transport.dispatch(delay, fn, args, count=count)

    def cancel(self, entry) -> None:
        # nothing in the system cancels a live delivery; its queue can
        self.transport._queue.cancel(entry)

    def run(self, until) -> int:
        if until is None:
            executed = 0
            while (due := self.transport.next_due()) is not None:
                self.clock.now = due
                executed += self.transport.pump()
            return executed
        self.clock.now = until
        return self.transport.pump()

    @property
    def pending(self) -> int:
        return self.transport.pending

    @property
    def processed(self) -> int:
        return self.transport.executed


#: delay 0 is the engine's FIFO bucket, any other the heap
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.5])
COUNTS = st.integers(1, 3)
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            DELAYS,
            COUNTS,
            st.booleans(),  # Engine.push at an absolute time, not dispatch
            st.lists(st.tuples(DELAYS, COUNTS), max_size=2),
        ),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(
            st.just("run"),
            st.one_of(st.none(), st.sampled_from([0.0, 0.3, 1.0, 2.0])),
        ),
    ),
    max_size=40,
)


@pytest.mark.parametrize(
    "under_test", [EngineUnderTest, QueueUnderTest], ids=["engine", "queue"]
)
@given(ops=OPS)
@settings(max_examples=200, deadline=None)
def test_queue_matches_the_reference_model(under_test, ops):
    """Pushes to heap and bucket, pushes from inside a running call,
    ``count > 1`` entries, cancels before firing, after firing and twice,
    and ``run(until=...)`` splits: the firing order and the exact
    ``pending``/``processed`` counts (and what each run reports executed)
    are the model's after every step."""
    queue = under_test()
    model = ReferenceQueue(under_test.children_at_fire_time)
    entries: list[list] = []
    fired: list[int] = []

    def call(tag, children):
        fired.append(tag)
        for delay, count in children:
            entries.append(queue.push(delay, call, (len(entries), ()), count, False))

    def check():
        assert fired == model.fired
        assert queue.pending == model.pending
        assert queue.processed == model.processed
        assert queue.now == model.now
        for entry, reference in zip(entries, model.calls):
            assert entry[0] == reference[0]
            # a fired or cancelled call is released at once
            assert (entry[2] is None) == (reference[4] != "queued")

    for op in ops:
        if op[0] == "push":
            _, delay, count, absolute, children = op
            model.push(model.now + delay, count, children)
            entries.append(
                queue.push(delay, call, (len(entries), children), count, absolute)
            )
        elif op[0] == "cancel" and entries:
            tag = op[1] % len(entries)
            model.cancel(tag)
            queue.cancel(entries[tag])
        elif op[0] == "run":
            until = None if op[1] is None else queue.now + op[1]
            assert queue.run(until) == model.run(until)
        check()
    assert queue.run(None) == model.run(None)
    check()
    assert queue.pending == 0
    assert len(entries) == len(model.calls)
