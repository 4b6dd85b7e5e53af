"""The CAB kernel: lightweight threads on a non-preemptive scheduler (§6.1).

Threads "execute as a set of coroutines, using a simple, non-preemptive
scheduler": a thread is awakened by an event, takes some action, and
voluntarily goes back to waiting.  Context switches cost 10–15 µs, nearly
all of it SPARC register-window save/restore; the cost is charged when a
blocked thread resumes.

Threads share the CAB CPU with interrupt handlers through the board's
:class:`~repro.hardware.cab.CabCpu`; handlers skip the switch cost.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Any, Generator, Optional

from ..config import THREAD_SWITCH_NS, WAKEUP_NS
from ..sim import Event, Process

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.cab import CabBoard


class CabThread:
    """A lightweight kernel thread (cf. Mach C Threads, §6.1)."""

    def __init__(self, kernel: "CabKernel", process: Process,
                 name: str) -> None:
        self.kernel = kernel
        self.process = process
        self.name = name
        self.switches = 0

    @property
    def is_alive(self) -> bool:
        return self.process.is_alive

    @property
    def done(self) -> Process:
        """The completion event (a thread is awaitable)."""
        return self.process

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.is_alive else "done"
        return f"<CabThread {self.name} {state}>"


class CabKernel:
    """Per-CAB kernel: thread management, CPU accounting, current-thread
    bookkeeping.  Mailboxes and timers build on this (same package)."""

    def __init__(self, cab: "CabBoard") -> None:
        self.cab = cab
        self.sim = cab.sim
        self.threads: list[CabThread] = []
        self.total_switches = 0
        #: Labels unnamed threads ``thread1``, ``thread2``, … per CAB.
        self._unnamed = count(1)

    # ------------------------------------------------------------------
    # thread lifecycle
    # ------------------------------------------------------------------

    def spawn(self, generator: Generator[Event, Any, Any],
              name: Optional[str] = None) -> CabThread:
        """Create and start a kernel thread running ``generator``."""
        label = name or f"thread{next(self._unnamed)}"
        process = self.sim.process(generator,
                                   name=f"{self.cab.name}.{label}")
        thread = CabThread(self, process, label)
        self.threads.append(thread)
        process.add_callback(lambda event: self._reap(thread, event))
        return thread

    def _reap(self, thread: CabThread, event: Event) -> None:
        if thread in self.threads:
            self.threads.remove(thread)
        if not event._ok:
            # A thread died with an unhandled error.  Errors must never
            # pass silently: halt the simulation loudly.
            self.sim._halt(RuntimeError(
                f"CAB thread {self.cab.name}.{thread.name} crashed: "
                f"{event._value!r}"), cause=event._value)

    @property
    def live_threads(self) -> int:
        return len(self.threads)

    # ------------------------------------------------------------------
    # primitives used inside thread bodies (all generators)
    # ------------------------------------------------------------------

    def compute(self, cost_ns: int):
        """Charge ``cost_ns`` of thread-level CPU work.

        Returns the CPU's generator directly (callers ``yield from`` it);
        not a generator function itself, which would add one delegation
        frame to every compute on the send/receive hot path.
        """
        return self.cab.cpu.execute(cost_ns)

    def wait(self, event: Event | int):
        """Block on ``event`` (or sleep, given an int); pay the
        context-switch cost on resumption."""
        value = yield event
        self.total_switches += 1
        yield from self.cab.cpu.execute(THREAD_SWITCH_NS)
        return value

    def sleep(self, duration_ns: int):
        """Block for ``duration_ns`` (switch cost charged on wake)."""
        return (yield from self.wait(int(duration_ns)))

    def wakeup_cost(self):
        """Charge the cost of making another thread runnable."""
        yield from self.cab.cpu.execute(WAKEUP_NS)
