"""Unit tests for coroutine processes (repro.sim.process)."""

import pytest

from repro.sim import Event, SimulationError, Simulator


class TestBasics:
    def test_process_runs_and_returns(self, sim):
        def body():
            yield sim.timeout(5)
            yield sim.timeout(7)
            return sim.now
        proc = sim.process(body())
        sim.run()
        assert proc.value == 12

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_is_alive_transitions(self, sim):
        def body():
            yield sim.timeout(10)
        proc = sim.process(body())
        assert proc.is_alive
        sim.run()
        assert not proc.is_alive

    def test_process_waits_on_event_value(self, sim):
        gate = sim.event()

        def body():
            value = yield gate
            return value
        proc = sim.process(body())
        sim.call_at(50, lambda: gate.succeed("opened"))
        sim.run()
        assert proc.value == "opened"

    def test_process_waits_on_other_process(self, sim):
        def inner():
            yield sim.timeout(30)
            return "inner result"

        def outer():
            result = yield sim.process(inner())
            return result, sim.now
        proc = sim.process(outer())
        sim.run()
        assert proc.value == ("inner result", 30)

    def test_yield_already_processed_event_resumes(self, sim):
        done = sim.event()
        done.succeed("early")

        def body():
            yield sim.timeout(100)
            value = yield done
            return value
        proc = sim.process(body())
        sim.run()
        assert proc.value == "early"

    def test_yield_non_event_crashes(self, sim):
        """Only an Event or an exact int is a wait: a float, a bool and
        a string are still errors, never silently truncated sleeps."""
        def body(value):
            yield value
        for value in (4.2, True, "42"):
            proc = sim.process(body(value))
            proc.add_callback(lambda ev: None)  # observe: fail, not halt
            sim.run()
            assert not proc.ok
            assert isinstance(proc.value, TypeError), value

    def test_failed_event_raises_inside_process(self, sim):
        gate = sim.event()

        def body():
            try:
                yield gate
            except RuntimeError as error:
                return f"caught {error}"
        proc = sim.process(body())
        sim.call_at(10, lambda: gate.fail(RuntimeError("kaboom")))
        sim.run()
        assert proc.value == "caught kaboom"


class TestSleep:
    """``yield n`` (an exact int) resumes the process ``n`` ticks later,
    with no ``Timeout`` allocated: the process re-appends its own wake
    event, where ``yield sim.timeout(n)`` would have appended its
    timeout."""

    def test_sleep_resumes_n_ticks_later_with_none(self, sim):
        def body():
            got = yield 5
            got2 = yield 0
            return got, got2, sim.now
        proc = sim.process(body())
        sim.run()
        assert proc.value == (None, None, 5)

    def test_sleeps_and_timeouts_mixed_in_one_cohort_keep_fifo(self, sim):
        order = []

        def sleeper(name, delay):
            yield delay
            order.append(name)

        def timer(name, delay):
            yield sim.timeout(delay)
            order.append(name)

        sim.call_at(10, lambda: order.append("call"))
        for index, delay in enumerate((10, 10, 10, 3, 0, 10)):
            make = sleeper if index % 2 else timer
            sim.process(make(f"p{index}", delay))
        sim.run()
        assert order == ["p4", "p3", "call", "p0", "p1", "p2", "p5"]

    def test_zero_sleep_lands_at_the_end_of_the_open_cohort(self, sim):
        order = []

        def body():
            order.append("first half")
            yield 0
            order.append("second half")

        def before():
            order.append("queued before the sleep")
            sim.call_in(0, lambda: order.append("queued after the sleep"))

        def first():
            sim.process(body())
            sim.call_in(0, before)
        sim.call_at(7, first)
        sim.call_at(7, lambda: order.append("same cohort"))
        sim.run()
        assert order == ["same cohort", "first half",
                         "queued before the sleep", "second half",
                         "queued after the sleep"]
        assert sim.now == 7

    def test_negative_sleep_raises_at_the_yield(self, sim):
        def body():
            try:
                yield -1
            except ValueError as error:
                caught = str(error)
            yield 4
            return caught, sim.now
        proc = sim.process(body())
        sim.run()
        assert proc.value == ("negative timeout delay -1", 4)

    def test_uncaught_negative_sleep_crashes_the_process(self, sim):
        def body():
            yield -3
        sim.process(body())
        with pytest.raises(SimulationError, match="negative timeout delay"):
            sim.run()

    def test_the_wake_is_reused_with_one_entry_per_sleep(self, sim):
        wakes = []

        def body():
            for _ in range(5):
                yield 2
                wakes.append(proc._wake)
        proc = sim.process(body())
        sim.run()
        # Bootstrap carrier + one entry per sleep, nothing else.
        assert sim.events_processed == 1 + 5 and sim.now == 10
        assert len(wakes) == 5 and all(wake is wakes[0] for wake in wakes)
        assert wakes[0].processed

        # A process that never sleeps never builds its wake.
        gate = sim.event()

        def waiter():
            yield gate
        idle = sim.process(waiter())
        gate.succeed()
        sim.run()
        assert idle._wake is None


class TestCrashes:
    def test_unobserved_crash_halts_simulation(self, sim):
        def body():
            yield sim.timeout(10)
            raise ValueError("unobserved")
        sim.process(body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_observed_crash_propagates_to_waiter(self, sim):
        def bad():
            yield sim.timeout(10)
            raise ValueError("inner failure")

        def outer():
            try:
                yield sim.process(bad())
            except ValueError as error:
                return f"handled: {error}"
        proc = sim.process(outer())
        sim.run()
        assert proc.value == "handled: inner failure"


class TestUnobservedCompletion:
    """A process nobody waits on finishes without an agenda entry; anyone
    who looks later still gets its value (or its failure)."""

    def finished(self, sim, value="done"):
        def body():
            yield sim.timeout(10)
            return value
        proc = sim.process(body())
        sim.run()
        return proc

    def test_completion_costs_no_agenda_entry(self, sim):
        proc = self.finished(sim)
        # Bootstrap carrier + the timeout: no third, no-op entry.
        assert sim.events_processed == 2
        assert proc.processed and proc.ok and proc.value == "done"
        assert not proc.is_alive

    def test_observed_completion_still_fires_in_agenda_order(self, sim):
        seen = []

        def body():
            yield sim.timeout(10)
            seen.append("returned")
            return "done"
        proc = sim.process(body())
        proc.add_callback(lambda event: seen.append(event.value))
        sim.run()
        assert seen == ["returned", "done"] and sim.events_processed == 3

    def test_yield_add_callback_and_all_of_deliver_the_value(self, sim):
        proc = self.finished(sim, value=42)
        got = []
        proc.add_callback(lambda event: got.append(event.value))
        assert got == [42]  # already processed: runs at once

        def late_waiter():
            got.append((yield proc))
            got.append((yield sim.all_of([proc]))[proc])
        sim.process(late_waiter())
        sim.run()
        assert got == [42, 42, 42]

    def test_unobserved_crash_halts_and_still_delivers_the_failure(self, sim):
        def body():
            yield sim.timeout(10)
            raise ValueError("boom")
        proc = sim.process(body())
        with pytest.raises(SimulationError, match="boom"):
            sim.run()
        assert proc.processed and not proc.ok

        def late_waiter():
            try:
                yield proc
            except ValueError as error:
                return f"caught {error}"
        waiter = sim.process(late_waiter())
        failed = sim.all_of([proc])
        sim.run()
        assert waiter.value == "caught boom"
        assert failed.triggered and not failed.ok
