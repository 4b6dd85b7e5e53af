"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot occurrence with a value.  Processes (see
:mod:`repro.sim.process`) suspend on events by yielding them; resources and
hardware models trigger them.  The design follows the classic simulation
pattern: triggering an event enqueues it on the simulator's agenda, and its
callbacks run when the agenda reaches it.

Hot-path notes.  Events are the engine's dominant allocation, so the
internal callback store (``_cb``) is adaptive: ``None`` while no callback
is registered, a bare callable for the overwhelmingly common single-waiter
case, and a list only once a second waiter appears.  A dedicated
``_PROCESSED`` sentinel marks the post-callback state (the public
:attr:`Event.processed` view).
Triggering appends the event to its timestamp's cohort list in the
simulator's calendar-queue agenda — appends happen in scheduling order,
so the cohort list *is* the classic ``(time, seq)`` FIFO order, with no
per-event sequence number or heap sift at all.  The hot trigger
sites, :meth:`Event.succeed` and :class:`Timeout` here, inline the
calendar insert (see :meth:`repro.sim.engine.Simulator._schedule` for
the annotated copy and the other sites); the cold :meth:`Event.fail`
calls it.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import Simulator

#: Sentinel marking an event that has not been triggered yet.
PENDING = object()

#: Sentinel stored in ``_cb`` once an event's callbacks have run.
_PROCESSED = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Life cycle: *pending* → *triggered* (``succeed``/``fail`` called, event
    sits on the agenda) → *processed* (callbacks have run).  An event may be
    triggered exactly once.
    """

    __slots__ = ("sim", "_cb", "_value", "_ok")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._cb: Any = None
        self._value: Any = PENDING
        self._ok: Optional[bool] = None

    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self._cb is _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is PENDING:
            raise RuntimeError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise RuntimeError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        run = sim._open_run
        if run is not None:
            run.append(self)
            return self
        time = sim.now
        buckets = sim._buckets
        bucket = buckets.get(time)
        if bucket is not None:
            bucket.append(self)
        else:
            buckets[time] = [self]
            heappush(sim._times, time)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes see the exception raised at their yield point.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._schedule(sim.now, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately.
        """
        cb = self._cb
        if cb is None:
            self._cb = callback
        elif cb is _PROCESSED:
            callback(self)
        elif type(cb) is list:
            cb.append(callback)
        else:
            self._cb = [cb, callback]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    The negative-delay check lives here (the agenda itself trusts its
    callers) and, for a process's ``yield n`` sleep, in
    :meth:`repro.sim.process.Process._resume`;
    :meth:`repro.sim.engine.Simulator.timeout` coerces the delay to
    ``int`` and constructs one.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay}")
        self.sim = sim
        self._cb = None
        self._ok = True
        self._value = value
        self.delay = delay
        time = sim.now + delay
        if delay == 0:
            run = sim._open_run
            if run is not None:
                run.append(self)
                return
        buckets = sim._buckets
        bucket = buckets.get(time)
        if bucket is not None:
            bucket.append(self)
        else:
            buckets[time] = [self]
            heappush(sim._times, time)


class Condition(Event):
    """Base for composite events over several sub-events.

    Subclasses define :meth:`_satisfied`.  The condition's value is a dict
    mapping each *triggered* sub-event to its value at the moment the
    condition fired.  A failing sub-event fails the whole condition.
    """

    __slots__ = ("events", "_pending_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("all events must share one simulator")
        self._pending_count = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._check)

    def _satisfied(self, fired: int, total: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            self.events = ()
            return
        self._pending_count -= 1
        fired = len(self.events) - self._pending_count
        if self._satisfied(fired, len(self.events)):
            self.succeed(self._collect())
            # A sub-event that never fires keeps ``_check`` and so this
            # condition; dropping the sub-events breaks that cycle, and
            # nothing reads them once the condition has fired.
            self.events = ()

    def _collect(self) -> dict[Event, Any]:
        return {
            event: event._value
            for event in self.events
            if event.triggered and event._ok
        }


class AllOf(Condition):
    """Fires when every sub-event has fired."""

    __slots__ = ()

    def _satisfied(self, fired: int, total: int) -> bool:
        return fired == total


class AnyOf(Condition):
    """Fires when at least one sub-event has fired."""

    __slots__ = ()

    def _satisfied(self, fired: int, total: int) -> bool:
        return fired >= 1
