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
        def body():
            yield 42
        proc = sim.process(body())
        proc.add_callback(lambda ev: None)  # observe so it fails not halts
        sim.run()
        assert not proc.ok
        assert isinstance(proc.value, TypeError)

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
