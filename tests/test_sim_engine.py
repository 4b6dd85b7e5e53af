"""Unit tests for the discrete-event engine (repro.sim.engine)."""

import pytest

from repro.sim import (AllOf, AnyOf, Event, SimulationError, Simulator,
                       Timeout)


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_timeout_advances_clock(self, sim):
        sim.timeout(250)
        sim.run()
        assert sim.now == 250

    def test_run_until_advances_exactly(self, sim):
        sim.run(until=1000)
        assert sim.now == 1000

    def test_run_until_processes_events_at_boundary(self, sim):
        fired = []
        sim.call_at(1000, lambda: fired.append(sim.now))
        sim.run(until=1000)
        assert fired == [1000]

    def test_run_until_does_not_process_later_events(self, sim):
        fired = []
        sim.call_at(1001, lambda: fired.append(sim.now))
        sim.run(until=1000)
        assert fired == []
        assert sim.now == 1000

    def test_run_until_past_raises(self, sim):
        sim.run(until=100)
        with pytest.raises(ValueError):
            sim.run(until=50)

    def test_peek_empty(self, sim):
        assert sim.peek() is None

    def test_peek_returns_next_timestamp(self, sim):
        sim.timeout(500)
        sim.timeout(100)
        assert sim.peek() == 0 or sim.peek() == 100  # timeouts enqueue at t+delay
        sim.run()
        assert sim.now == 500

class TestEventOrdering:
    def test_same_time_fifo(self, sim):
        order = []
        for tag in range(5):
            sim.call_at(100, lambda t=tag: order.append(t))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_time_ordering(self, sim):
        order = []
        sim.call_at(300, lambda: order.append(300))
        sim.call_at(100, lambda: order.append(100))
        sim.call_at(200, lambda: order.append(200))
        sim.run()
        assert order == [100, 200, 300]

    def test_call_in_relative(self, sim):
        seen = []
        sim.call_in(50, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [50]

    def test_call_at_past_raises(self, sim):
        sim.run(until=10)
        with pytest.raises(ValueError):
            sim.call_at(5, lambda: None)


class TestEvents:
    def test_succeed_value(self, sim):
        event = sim.event()
        event.succeed(42)
        sim.run()
        assert event.processed
        assert event.ok
        assert event.value == 42

    def test_double_trigger_raises(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(RuntimeError):
            _ = event.value

    def test_callback_after_processing_runs_immediately(self, sim):
        event = sim.event()
        event.succeed("x")
        sim.run()
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        assert seen == ["x"]

    def test_negative_timeout_raises(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_negative_timeout_message_pinned(self, sim):
        """One authoritative check, one message."""
        with pytest.raises(ValueError, match=r"^negative timeout delay -7$"):
            sim.timeout(-7)

    def test_timeout_carries_value(self, sim):
        timeout = sim.timeout(10, value="done")
        sim.run()
        assert timeout.value == "done"

    def test_float_delay_truncates_on_fresh_path(self, sim):
        """Non-int delays are coerced once, up front, via int()."""
        timeout = sim.timeout(5.9)
        assert timeout.delay == 5
        sim.run()
        assert sim.now == 5

    def test_negative_float_delay_truncates_before_validation(self, sim):
        """int() truncation happens before validation."""
        with pytest.raises(ValueError, match=r"^negative timeout delay -1$"):
            sim.timeout(-1.5)

    def test_small_negative_float_truncates_to_zero(self, sim):
        """int(-0.9) == 0: truncation toward zero is the documented
        coercion, so a tiny negative float is a zero-delay timeout."""
        timeout = sim.timeout(-0.9)
        assert timeout.delay == 0
        sim.run()
        assert timeout.processed


class TestHaltDelivery:
    """A stored halt must never be swallowed (the old drain loop only
    re-raised when the agenda still held an entry within the limit)."""

    def _crash_at(self, sim, when):
        def body():
            yield sim.timeout(when)
            raise RuntimeError("boom")
        sim.process(body())

    def test_run_raises_halt_with_empty_agenda(self, sim):
        """Crash in the very last agenda entry: nothing is left to
        process, but run() must still raise."""
        self._crash_at(sim, 10)
        with pytest.raises(SimulationError, match="boom"):
            sim.run()

    def test_run_raises_halt_when_next_entry_beyond_until(self, sim):
        """Crash inside the window with the only other work beyond it."""
        self._crash_at(sim, 10)
        sim.call_at(10_000, lambda: None)
        with pytest.raises(SimulationError, match="boom"):
            sim.run(until=100)

    def test_pending_halt_raised_on_entry_even_when_idle(self, sim):
        sim._halt(RuntimeError("stored"))
        with pytest.raises(SimulationError, match="stored"):
            sim.run()

    def test_halt_is_one_shot(self, sim):
        """Raising the halt consumes it; the simulation can continue."""
        self._crash_at(sim, 10)
        sim.call_at(20, lambda: None)
        with pytest.raises(SimulationError):
            sim.run()
        sim.run()  # must not re-raise
        assert sim.now == 20

    def test_events_after_crash_survive_for_next_run(self, sim):
        """A crash mid-cohort preserves the unprocessed remainder."""
        fired = []
        sim.call_at(10, lambda: fired.append("before"))
        self._crash_at(sim, 10)
        # Scheduled from inside the t=0 bootstrap so it lands in the
        # t=10 cohort *after* the crashing process's resume event.
        sim.call_at(0, lambda: sim.call_at(10, lambda: fired.append("after")))
        sim.call_at(30, lambda: fired.append("later"))
        with pytest.raises(SimulationError):
            sim.run()
        assert fired == ["before"]
        sim.run()
        assert fired == ["before", "after", "later"]
        assert sim.now == 30


class TestConditions:
    def test_all_of_waits_for_every_event(self, sim):
        t1, t2 = sim.timeout(100), sim.timeout(300)
        both = sim.all_of([t1, t2])
        results = []
        both.add_callback(lambda ev: results.append(sim.now))
        sim.run()
        assert results == [300]

    def test_any_of_fires_on_first(self, sim):
        t1, t2 = sim.timeout(100), sim.timeout(300)
        either = sim.any_of([t1, t2])
        results = []
        either.add_callback(lambda ev: results.append(sim.now))
        sim.run()
        assert results == [100]

    def test_all_of_value_maps_events(self, sim):
        t1 = sim.timeout(10, value="a")
        t2 = sim.timeout(20, value="b")
        both = sim.all_of([t1, t2])
        sim.run()
        assert both.value == {t1: "a", t2: "b"}

    def test_empty_all_of_fires_immediately(self, sim):
        empty = sim.all_of([])
        sim.run()
        assert empty.processed
        assert empty.value == {}

    def test_failing_subevent_fails_condition(self, sim):
        bad = sim.event()
        good = sim.timeout(100)
        both = sim.all_of([bad, good])
        bad.fail(RuntimeError("boom"))
        sim.run()
        assert both.triggered
        assert not both.ok

    def test_condition_rejects_foreign_events(self, sim):
        other = Simulator()
        with pytest.raises(ValueError):
            sim.all_of([other.timeout(1)])

    def test_empty_any_of_fires_immediately(self, sim):
        empty = sim.any_of([])
        sim.run()
        assert empty.ok
        assert empty.value == {}

    def test_subevent_failing_after_fire_does_not_refail(self, sim):
        """A late failure in a losing sub-event leaves the already-fired
        condition untouched."""
        winner = sim.event()
        loser = sim.event()
        race = sim.any_of([winner, loser])
        winner.succeed("first")
        sim.run()
        assert race.ok
        assert race.value == {winner: "first"}
        loser.fail(RuntimeError("late loser"))
        sim.run()
        assert race.ok
        assert race.value == {winner: "first"}

    def test_any_of_value_excludes_untriggered_events(self, sim):
        fast = sim.timeout(10, value="fast")
        never = sim.event()
        race = sim.any_of([fast, never])
        sim.run(until=100)
        assert race.ok
        assert race.value == {fast: "fast"}
        assert never not in race.value


class TestRunProcess:
    def test_raises_process_error(self, sim):
        def body():
            yield sim.timeout(10)
            raise ValueError("inner")
        proc = sim.process(body())
        seen = []
        proc.add_callback(lambda ev: seen.append(ev))
        sim.run()
        assert not proc.ok
        assert isinstance(proc.value, ValueError)
