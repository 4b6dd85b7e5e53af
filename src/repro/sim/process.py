"""Coroutine processes driven by the simulation engine.

A :class:`Process` wraps a generator.  The generator yields
:class:`~repro.sim.events.Event` objects; each yield suspends the process
until the event fires, at which point the event's value is sent back into
the generator (or its exception raised there).  A process is itself an
event that fires with the generator's return value, so processes can wait
on each other.

Hot-path notes: a process resumes once per yield, so :meth:`Process._resume`
is one of the engine's hottest functions.  The bound resume method is
created once (``_on_fire``) instead of per wait, bootstrap/resume carrier
events come from the simulator's free list via
:meth:`~repro.sim.engine.Simulator._carrier`, and the single-waiter
callback representation avoids a list allocation per awaited event.
A process that ends drops ``_on_fire``, which refers back to it, so a
dead process is freed by reference count, not by a pass of the cycle
collector (``tests/test_sim_garbage.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import PENDING, _PROCESSED, Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The CAB kernel uses interrupts the way the hardware does: to pull a
    thread out of a wait when a higher-level event (packet arrival, timer)
    demands attention.
    """

    @property
    def cause(self) -> Any:
        """The value passed to :meth:`Process.interrupt`."""
        return self.args[0] if self.args else None


class ProcessCrash(Exception):
    """An unhandled exception escaped a process with no waiters.

    Wrapping keeps the original traceback while making the simulation stop
    loudly instead of dropping errors on the floor.
    """


class Process(Event):
    """A running coroutine inside the simulation.

    Create via :meth:`repro.sim.engine.Simulator.process`.  The process event
    fires when the generator returns (value = return value) or fails when
    the generator raises.
    """

    __slots__ = ("name", "_generator", "_waiting_on", "_on_fire")

    def __init__(self, sim: "Simulator",
                 generator: Generator[Event, Any, Any],
                 name: Optional[str] = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process body must be a generator, got "
                            f"{type(generator).__name__}")
        self.sim = sim
        self._cb = None
        self._value = PENDING
        self._ok = None
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        #: The one bound resume callback reused for every wait; dropped
        #: (``None``) when the process ends.
        self._on_fire = self._resume
        self._waiting_on: Optional[Event] = sim._carrier(
            True, None, self._on_fire)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a finished process is an error.  The interrupt is an
        ordinary agenda entry at the current instant: it takes its FIFO
        turn behind whatever that instant already holds, and supersedes
        the wake-up the process was waiting for, even one already
        triggered.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"cannot interrupt finished process {self.name}")
        target = self._waiting_on
        if target is not None and target._cb is not _PROCESSED:
            target.remove_callback(self._on_fire)
        self._waiting_on = self.sim._carrier(
            False, Interrupt(cause), self._on_fire)

    def _resume(self, trigger: Event) -> None:
        if self._value is not PENDING:
            return
        sim = self.sim
        self._waiting_on = None
        try:
            if trigger._ok:
                target = self._generator.send(trigger._value)
            else:
                target = self._generator.throw(trigger._value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupt as interrupt:
            # An unhandled interrupt terminates the process quietly with
            # the interrupt cause as its value, mirroring thread kill.
            self._finish(interrupt.cause)
            # The exception's traceback keeps this frame: drop the local
            # that leads back to the exception, so no cycle is left.
            trigger = None
            return
        except BaseException as error:
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise
            self._crash(error)
            self = None  # as above: the process now holds the error
            return
        if not isinstance(target, Event):
            self._crash(TypeError(
                f"process {self.name!r} yielded {target!r}, expected Event"))
            return
        if target.sim is not sim:
            self._crash(ValueError(
                f"process {self.name!r} yielded event of another simulator"))
            return
        cb = target._cb
        if cb is _PROCESSED:
            # Already-processed events resume the process on the next step.
            self._waiting_on = sim._carrier(
                target._ok, target._value, self._on_fire)
        else:
            # Inlined Event.add_callback (the target is not processed).
            if cb is None:
                target._cb = self._on_fire
            elif type(cb) is list:
                cb.append(self._on_fire)
            else:
                target._cb = [cb, self._on_fire]
            self._waiting_on = target

    def _finish(self, value: Any) -> None:
        self._on_fire = None
        if self._cb is None:
            # Nobody is waiting, so completion needs no agenda entry: go
            # straight to processed.  A later ``yield proc``/``add_callback``
            # takes the already-processed path and still gets the value.
            self._ok = True
            self._value = value
            self._cb = _PROCESSED
        else:
            self.succeed(value)

    def _crash(self, error: BaseException) -> None:
        self._on_fire = None
        self._generator.close()
        if self._cb is not None:
            # Someone is waiting on this process: propagate to them.
            self.fail(error)
        else:
            self.sim._halt(ProcessCrash(
                f"unhandled error in process {self.name!r}: {error!r}"),
                cause=error)
            # Mark triggered so is_alive is False after a crash.
            self._ok = False
            self._value = error
            self._cb = _PROCESSED

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"
