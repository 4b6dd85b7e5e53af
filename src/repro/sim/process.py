"""Coroutine processes driven by the simulation engine.

A :class:`Process` wraps a generator.  The generator yields one of two
things:

* an :class:`~repro.sim.events.Event`: the process suspends until the
  event fires, at which point the event's value is sent back into the
  generator (or its exception raised there);
* an exact ``int`` ``n >= 0``: a *sleep* — the process resumes ``n``
  ticks from now, with ``None`` sent back, exactly where ``yield
  sim.timeout(n)`` would have resumed it.  A negative ``n`` raises
  ``ValueError`` inside the generator at the yield.

Anything else (a float, a ``bool``, a string) crashes the process with
``TypeError``.  A process is itself an event that fires with the
generator's return value, so processes can wait on each other.

Hot-path notes: a process resumes once per yield, so :meth:`Process._resume`
is one of the engine's hottest functions.  The bound resume method is
created once (``_on_fire``) instead of per wait, a bootstrap/resume
carrier is one plain pre-triggered event
(:meth:`~repro.sim.engine.Simulator._carrier`), and the single-waiter
callback representation avoids a list allocation per awaited event.
A sleep allocates nothing: the process owns one pre-triggered wake
event, made on its first sleep, and re-appends it to the agenda at
``now + n`` — the cohort and position where a ``Timeout(n)`` built by
the generator before its yield would have appended itself, since
nothing runs between the yield and ``send`` returning.
A process that ends drops ``_on_fire``, which refers back to it, so a
dead process is freed by reference count, not by a pass of the cycle
collector (``tests/test_sim_garbage.py``).

A process ends one way only: its generator returns or raises.  Nothing
interrupts or kills it from outside, as nothing does to a CAB kernel
thread (§6.1); a hardware interrupt is CPU work, not a process signal
(:meth:`~repro.hardware.cab.CabCpu.execute_interrupt`).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import PENDING, _PROCESSED, Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator


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

    __slots__ = ("name", "_generator", "_on_fire", "_wake")

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
        #: The pre-triggered event every sleep re-appends (made on the
        #: first sleep; a process that never sleeps never builds it).
        self._wake: Optional[Event] = None
        sim._carrier(True, None, self._on_fire)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def _resume(self, trigger: Event) -> None:
        sim = self.sim
        try:
            if trigger._ok:
                target = self._generator.send(trigger._value)
            else:
                target = self._generator.throw(trigger._value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as error:
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise
            self._crash(error)
            # The exception's traceback keeps this frame: drop the local
            # that leads back to the process, which now holds the error,
            # so no cycle is left.
            self = None
            return
        if target.__class__ is int:
            if target < 0:
                self._throw(ValueError(f"negative timeout delay {target}"))
                return
            wake = self._wake
            if wake is None:
                wake = self._wake = Event(sim)
                wake._ok = True
                wake._value = None
            wake._cb = self._on_fire
            # Inlined Simulator._schedule at now + target.
            if target == 0:
                run = sim._open_run
                if run is not None:
                    run.append(wake)
                    return
            time = sim.now + target
            buckets = sim._buckets
            bucket = buckets.get(time)
            if bucket is not None:
                bucket.append(wake)
            else:
                buckets[time] = [wake]
                heappush(sim._times, time)
            return
        if not isinstance(target, Event):
            self._crash(TypeError(
                f"process {self.name!r} yielded {target!r}, expected Event "
                f"or int"))
            return
        if target.sim is not sim:
            self._crash(ValueError(
                f"process {self.name!r} yielded event of another simulator"))
            return
        cb = target._cb
        if cb is _PROCESSED:
            # An already-processed event resumes the process in an agenda
            # entry of its own at the current instant.
            sim._carrier(target._ok, target._value, self._on_fire)
        else:
            # Inlined Event.add_callback (the target is not processed).
            if cb is None:
                target._cb = self._on_fire
            elif type(cb) is list:
                cb.append(self._on_fire)
            else:
                target._cb = [cb, self._on_fire]

    def _throw(self, error: BaseException) -> None:
        """Raise ``error`` inside the generator at its current yield, as
        a failed event it waited on would."""
        carrier = Event(self.sim)
        carrier._ok = False
        carrier._value = error
        self._resume(carrier)

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
