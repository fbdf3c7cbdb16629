"""Unit tests for the discrete-event engine and periodic tasks."""

import gc
import math
import weakref

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim import Engine


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(3.0, lambda: order.append("c"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(2.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_fifo(self):
        engine = Engine()
        order = []
        for label in "abc":
            engine.schedule(1.0, lambda label=label: order.append(label))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        engine = Engine()
        times = []
        engine.schedule(2.5, lambda: times.append(engine.now))
        engine.run()
        assert times == [2.5]
        assert engine.now == 2.5

    def test_zero_delay_runs_after_current_event(self):
        engine = Engine()
        order = []

        def first():
            order.append("first")
            engine.schedule(0.0, lambda: order.append("nested"))

        engine.schedule(1.0, first)
        engine.schedule(1.0, lambda: order.append("second"))
        engine.run()
        # nested was scheduled during 'first' so it runs after 'second'
        # (FIFO among same-time events).
        assert order == ["first", "second", "nested"]

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SchedulingError):
            engine.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SchedulingError):
            engine.schedule_at(1.0, lambda: None)

    def test_cancel_prevents_execution(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run()
        assert fired == []
        assert engine.pending == 0 and engine.processed == 0


class TestRun:
    def test_run_until_horizon(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(2))
        executed = engine.run(until=5.0)
        assert executed == 1
        assert fired == [1]
        assert engine.now == 5.0
        # The later event still fires on the next run.
        engine.run()
        assert fired == [1, 2]

    def test_run_until_advances_clock_when_queue_empties(self):
        engine = Engine()
        engine.run(until=42.0)
        assert engine.now == 42.0

    def test_run_until_the_past_raises_and_keeps_the_clock(self):
        engine = Engine()
        engine.run(until=2.0)
        with pytest.raises(SchedulingError, match="got 1.0"):
            engine.run(until=1.0)
        assert engine.now == 2.0
        fired = []
        engine.schedule(0.5, lambda: fired.append(engine.now))
        engine.run(until=2.0)  # until == now runs nothing and is legal
        assert fired == [] and engine.now == 2.0
        engine.run()
        assert fired == [2.5]

    @pytest.mark.parametrize("until", [math.nan, math.inf, -math.inf])
    def test_non_finite_until_raises_before_anything_runs(self, until):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        with pytest.raises(SchedulingError, match=f"got {until}"):
            engine.run(until=until)
        assert fired == [] and engine.now == 0.0 and engine.pending == 1
        engine.schedule(0.5, lambda: fired.append(2))  # the clock is usable
        engine.run()
        assert fired == [2, 1]

    def test_max_events_guard_raises_on_livelock(self):
        engine = Engine()

        def rearm():
            engine.schedule(1.0, rearm)

        engine.schedule(1.0, rearm)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_max_events_with_until_stops_quietly(self):
        engine = Engine()

        def rearm():
            engine.schedule(1.0, rearm)

        engine.schedule(1.0, rearm)
        executed = engine.run(until=1000.0, max_events=10)
        assert executed == 10

    def test_run_not_reentrant(self):
        engine = Engine()
        errors = []

        def inner():
            try:
                engine.run()
            except SimulationError as exc:
                errors.append(exc)

        engine.schedule(1.0, inner)
        engine.run()
        assert len(errors) == 1

    def test_processed_counter(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.processed == 5


class TestPendingAccuracy:
    def test_pending_counts_live_events_only(self):
        engine = Engine()
        first = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        assert engine.pending == 2
        first.cancel()
        # The dead heap entry no longer counts, even before it is popped.
        assert engine.pending == 1
        engine.run()
        assert engine.pending == 0

    def test_double_cancel_does_not_double_decrement(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert engine.pending == 1

    def test_cancel_after_fire_is_noop(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.run()
        handle.cancel()
        assert engine.pending == 0
        assert engine.processed == 1

    def test_cancel_releases_callback_closure(self):
        engine = Engine()

        class Payload:
            pass

        payload = Payload()
        ref = weakref.ref(payload)
        handle = engine.schedule(100.0, lambda: payload)
        del payload
        handle.cancel()
        gc.collect()
        # The closure (and everything it captured) is gone even though the
        # cancelled entry still sits in the heap.
        assert ref() is None

    def test_fired_callback_released_too(self):
        engine = Engine()

        class Payload:
            pass

        payload = Payload()
        ref = weakref.ref(payload)
        engine.schedule(1.0, lambda: payload)
        engine.run()
        del payload
        gc.collect()
        assert engine.processed == 1
        assert ref() is None


class TestDispatch:
    """``dispatch`` is the scheduling primitive: ``fn(*args)`` standing for
    ``count`` events. (The contract it shares with ``QueueTransport`` is in
    ``tests/test_net_transport.py``.)"""

    def test_dispatch_calls_fn_with_args(self):
        engine = Engine()
        seen = []
        engine.dispatch(1.0, lambda a, b: seen.append((a, b)), (3, "x"))
        engine.run()
        assert seen == [(3, "x")]

    def test_dispatch_count_accounting(self):
        engine = Engine()
        calls = []
        engine.dispatch(1.0, calls.append, ("batch",), count=7)
        assert engine.pending == 7
        executed = engine.run()
        assert calls == ["batch"]  # one physical call...
        assert executed == 7  # ...standing for seven logical events
        assert engine.processed == 7
        assert engine.pending == 0

    def test_dispatch_no_args(self):
        engine = Engine()
        seen = []
        engine.dispatch(0.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [0.0]

    def test_dispatch_interleaves_fifo_with_schedule(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, lambda: order.append("before"))
        engine.dispatch(1.0, order.append, ("dispatched",), count=3)
        engine.schedule(1.0, lambda: order.append("after"))
        engine.run()
        assert order == ["before", "dispatched", "after"]

    def test_cancel_dispatch_releases_args_and_count(self):
        engine = Engine()
        fired = []
        handle = engine.dispatch(1.0, fired.append, (1,), count=5)
        assert engine.pending == 5
        handle.cancel()
        assert engine.pending == 0
        assert handle._args is None
        engine.run()
        assert fired == []

    def test_dispatch_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Engine().dispatch(-1.0, lambda: None)

    def test_dispatch_zero_count_rejected(self):
        engine = Engine()
        with pytest.raises(SchedulingError):
            engine.dispatch(1.0, lambda: None, (), count=0)
        assert engine.pending == 0

    def test_dispatch_nan_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SchedulingError):
            engine.dispatch(float("nan"), lambda: None)
        assert engine.pending == 0

    @pytest.mark.parametrize("how", ["schedule", "schedule_at", "dispatch"])
    def test_infinite_time_rejected(self, how):
        """A call at +inf would fire, leave ``now`` at inf and collapse
        every later ``now + delay`` into the current time."""
        engine = Engine()
        fired = []
        with pytest.raises(SchedulingError, match="finite"):
            getattr(engine, how)(float("inf"), lambda: fired.append(1))
        assert engine.pending == 0
        engine.schedule(1.0, lambda: fired.append(2))
        assert engine.run() == 1
        assert fired == [2] and engine.now == 1.0

    def test_negative_infinite_time_rejected(self):
        engine = Engine()
        with pytest.raises(SchedulingError):
            engine.schedule_at(float("-inf"), lambda: None)
        with pytest.raises(SchedulingError):
            engine.dispatch(float("-inf"), lambda: None)
        assert engine.pending == 0

    def test_schedule_at_absolute_time(self):
        engine = Engine()
        times = []
        engine.schedule_at(3.5, lambda: times.append(engine.now))
        assert engine.pending == 1
        assert engine.run() == 1
        assert times == [3.5]


class TestZeroLatencyBucket:
    def test_mixed_bucket_and_heap_order(self):
        engine = Engine()
        order = []

        def at_two():
            order.append("heap@2")
            engine.schedule(0.0, lambda: order.append("bucket@2"))
            engine.schedule(1.0, lambda: order.append("heap@3"))

        engine.schedule(2.0, at_two)
        engine.run()
        assert order == ["heap@2", "bucket@2", "heap@3"]

    def test_cancelled_bucket_entry_skipped(self):
        engine = Engine()
        fired = []

        def kickoff():
            doomed = engine.schedule(0.0, lambda: fired.append("doomed"))
            engine.schedule(0.0, lambda: fired.append("kept"))
            doomed.cancel()

        engine.schedule(1.0, kickoff)
        engine.run()
        assert fired == ["kept"]

    def test_until_horizon_with_bucket_events(self):
        engine = Engine()
        fired = []

        def at_one():
            fired.append("one")
            engine.schedule(0.0, lambda: fired.append("one-nested"))

        engine.schedule(1.0, at_one)
        engine.schedule(10.0, lambda: fired.append("ten"))
        engine.run(until=5.0)
        assert fired == ["one", "one-nested"]
        assert engine.now == 5.0


class TestPeriodicTask:
    def test_fires_repeatedly(self):
        engine = Engine()
        ticks = []
        engine.every(1.0, lambda: ticks.append(engine.now), initial_delay=1.0)
        engine.run(until=5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_stop(self):
        engine = Engine()
        ticks = []
        task = engine.every(1.0, lambda: ticks.append(1), initial_delay=1.0)
        engine.schedule(2.5, task.stop)
        engine.run(until=10.0)
        assert len(ticks) == 2
        assert engine.pending == 0

    def test_callback_false_stops(self):
        engine = Engine()
        ticks = []

        def tick():
            ticks.append(1)
            return len(ticks) < 3

        engine.every(1.0, tick)
        engine.run(until=100.0)
        assert len(ticks) == 3

    def test_invalid_interval(self):
        with pytest.raises(SchedulingError):
            Engine().every(0.0, lambda: None)

    def test_initial_delay_zero_not_allowed_to_loop(self):
        engine = Engine()
        ticks = []
        engine.every(2.0, lambda: ticks.append(engine.now), initial_delay=0.5)
        engine.run(until=5.0)
        assert ticks == [0.5, 2.5, 4.5]
