"""Clock protocol seam: the Engine behind the contract, AsyncClock's now.

The engine implements :class:`~repro.sim.clock.Clock` (schedule, cancel,
periodic tasks, FIFO order for same-time callbacks); the live runtime's
:class:`~repro.service.clock.AsyncClock` only reads wall-clock time. Plus
a hypothesis suite pinning that Engine-backed runs stay bit-identical
run-to-run through the seam.
"""

import asyncio

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.service.clock import AsyncClock
from repro.sim.clock import Clock, PeriodicTask
from repro.sim.engine import Engine


class TestProtocolConformance:
    def test_engine_is_a_clock(self):
        assert isinstance(Engine(), Clock)

    def test_engine_handle_is_its_queue_entry(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        assert type(handle) is list
        assert handle[:2] == [1.0, 0]

    def test_engine_every_returns_shared_periodic_task(self):
        engine = Engine()
        task = engine.every(1.0, lambda: None)
        assert isinstance(task, PeriodicTask)


class TestEngineCancellation:
    def test_cancel_prevents_firing(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append(1))
        engine.cancel(handle)
        engine.run_until_idle()
        assert fired == []
        assert engine.pending == 0

    def test_cancel_after_firing_is_noop(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append(1))
        engine.run_until_idle()
        engine.cancel(handle)
        assert fired == [1]
        assert engine.pending == 0

    def test_periodic_stop_on_engine(self):
        engine = Engine()
        ticks = []
        task = engine.every(1.0, lambda: ticks.append(engine.now))
        engine.run(until=3.5)
        task.stop()
        engine.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert engine.pending == 0

    def test_periodic_callback_false_stops_on_engine(self):
        engine = Engine()
        ticks = []
        engine.every(1.0, lambda: ticks.append(engine.now) or False)
        engine.run_until_idle()
        assert ticks == [1.0]


class TestAsyncClock:
    def test_now_is_zero_before_attach(self):
        assert AsyncClock().now == 0.0

    def test_attach_is_idempotent_per_loop(self):
        async def run():
            clock = AsyncClock()
            clock.attach()
            await asyncio.sleep(0.002)
            before = clock.now
            clock.attach()  # same loop: origin must NOT reset
            assert clock.now >= before > 0.0

        asyncio.run(run())


@given(
    delays=st.lists(
        st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=30,
    ),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_engine_schedule_order_is_deterministic(delays, cancel_mask):
    """Same schedule/cancel sequence → identical firing trace, twice.

    The pre/post-refactor bit-identity property at the seam level: Engine
    consumed through the Clock protocol surface (schedule + cancel + run)
    yields exactly the same execution every time.
    """

    def run_once():
        engine = Engine()
        fired = []
        handles = []
        for index, delay in enumerate(delays):
            handles.append(
                engine.schedule(
                    delay, lambda i=index: fired.append((engine.now, i))
                )
            )
        for handle, cancel in zip(handles, cancel_mask):
            if cancel:
                engine.cancel(handle)
        engine.run_until_idle()
        return fired

    first = run_once()
    second = run_once()
    assert first == second
    cancelled = {
        i for i, (_, cancel) in enumerate(zip(delays, cancel_mask)) if cancel
    }
    assert {i for _, i in first} == set(range(len(delays))) - cancelled


@given(
    interval=st.floats(0.1, 5.0, allow_nan=False, allow_infinity=False),
    horizon=st.floats(1.0, 50.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=40, deadline=None)
def test_periodic_firing_count_matches_closed_form(interval, horizon):
    engine = Engine()
    ticks = []
    engine.every(interval, lambda: ticks.append(engine.now))
    engine.run(until=horizon)
    expected = int(horizon // interval)
    # Guard float-boundary flakiness: k*interval == horizon may or may
    # not be reached depending on rounding; allow the boundary tick.
    assert len(ticks) in (expected, expected + 1, max(0, expected - 1))
