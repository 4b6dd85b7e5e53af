"""The discrete-event simulation engine.

:class:`Simulator` owns the clock (integer nanoseconds) and the agenda — a
calendar queue of triggered events.  Hardware models and protocol code are
written as coroutine processes; the engine interleaves them in timestamp
order, with FIFO tie-breaking for determinism.

Hot-path design (see ``docs/PERFORMANCE.md`` for the full story):

* The agenda is a **calendar queue over timestamp cohorts**: a dict maps
  each pending timestamp to the plain list of events scheduled at it and
  an integer min-heap orders the *distinct* timestamps.  There is one
  lane: appends happen in scheduling order, so a cohort list *is* the
  classic ``(time, seq)`` ordering — bit for bit — with no per-event
  key allocation and no per-event heap sift.
* :meth:`Simulator.run` drains whole same-timestamp cohorts per bucket
  lookup: one heap pop, one ``self.now`` write, then a straight scan of
  the cohort list (which may grow while it is scanned — new events
  scheduled *at* the current instant are appended and drained in the
  same pass).
* Events scheduled at the current instant while a cohort is draining —
  every ``succeed``/``fail``, every process-resume carrier — are a
  single ``list.append``; the heap is touched only when a *new* future
  timestamp first appears.
* Every :class:`Timeout` and :class:`Event` is a plain allocation:
  the engine keeps no free list, and a processed event is freed by
  reference count once the last holder lets it go.
* A fixed delay costs no allocation at all: a process that yields an
  exact ``int`` sleeps on its own wake event (see
  :mod:`repro.sim.process`), so :meth:`Simulator.timeout` is left for
  deadlines raced in :meth:`Simulator.any_of`.
* :meth:`Simulator.call_at` schedules a featherweight callable wrapper
  instead of a throwaway ``Event`` + lambda pair, and it and
  :meth:`Simulator.call_in` place it on the agenda themselves: every
  scheduling operation is one Python call.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

from .events import _PROCESSED, AllOf, AnyOf, Event, Timeout
from .process import Process


class SimulationError(Exception):
    """The simulation was halted by an unrecoverable error."""


class _Call:
    """Agenda-resident wrapper for :meth:`Simulator.call_at` functions.

    Replaces the pre-triggered ``Event`` + adapter-lambda + callback-list
    allocation trio with a single two-word object.  The drain loop
    special-cases it.
    """

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[], None]) -> None:
        self._fn = fn


class Simulator:
    """Event loop, clock, and process factory.

    Typical use::

        sim = Simulator()

        def hello():
            yield 100           # sleep 100 ns
            return sim.now

        proc = sim.process(hello())
        sim.run()
        assert proc.value == 100
    """

    def __init__(self) -> None:
        #: Current simulation time in nanoseconds.  A plain attribute, not
        #: a property: model code reads the clock on every hop/transfer,
        #: so the read must be one dict lookup.  Treat as read-only.
        self.now: int = 0
        # Calendar-queue agenda.  Invariants (see docs/PERFORMANCE.md):
        #  * _times holds exactly the keys of _buckets, each once: a key
        #    is pushed when its cohort is created and popped with it;
        #  * cohort lists are in FIFO (= global sequence) order, because
        #    appends happen in scheduling order.
        self._buckets: dict[int, list[Any]] = {}
        self._times: list[int] = []
        #: While :meth:`run` drains the cohort at ``self.now``, the live
        #: cohort list; events scheduled at the current instant append
        #: here and are processed in the same pass.
        self._open_run: Optional[list[Any]] = None
        self._halted: Optional[BaseException] = None
        self._halt_cause: Optional[BaseException] = None
        #: Agenda entries processed so far (events/sec benchmarking).
        self.events_processed: int = 0
        #: Timestamp of the last agenda entry processed (0 before any):
        #: ``now`` unless a bounded :meth:`run` moved the clock past it.
        self.last_ns: int = 0

    # ------------------------------------------------------------------
    # clock and agenda
    # ------------------------------------------------------------------

    def _schedule(self, time: int, item: Any) -> None:
        """Place ``item`` on the agenda at ``time``.

        Internal: callers guarantee ``time >= self.now``.  The hot
        scheduling sites (``Event.succeed``, ``Timeout``, a process's
        sleep, ``call_at``/``call_in``, ``Resource.acquire``) inline this
        dance; everything else lands here.
        """
        if time == self.now:
            run = self._open_run
            if run is not None:
                run.append(item)
                return
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is not None:
            bucket.append(item)
        else:
            buckets[time] = [item]
            heappush(self._times, time)

    def _halt(self, error: BaseException,
              cause: Optional[BaseException] = None) -> None:
        self._halted = error
        self._halt_cause = cause

    def _raise_halt(self) -> None:
        """Consume and raise the stored halt (one-shot, path-independent)."""
        error, self._halted = self._halted, None
        cause, self._halt_cause = self._halt_cause, None
        raise SimulationError(str(error)) from cause

    # ------------------------------------------------------------------
    # event factories
    # ------------------------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event that fires ``delay`` ticks from now with ``value``.

        For a deadline raced in :meth:`any_of`; a process that only
        waits out a fixed delay yields the ``int`` itself.
        """
        if type(delay) is not int:
            # int() truncation toward zero, as documented; Timeout
            # validates the result.
            delay = int(delay)
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any],
                name: Optional[str] = None) -> Process:
        """Start a coroutine process; returns its completion event."""
        return Process(self, generator, name=name)

    def all_of(self, events: list[Event]) -> AllOf:
        """Event firing when every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: list[Event]) -> AnyOf:
        """Event firing when any event in ``events`` has fired."""
        return AnyOf(self, events)

    def _carrier(self, ok: bool, value: Any,
                 callback: Callable[[Event], None]) -> None:
        """Schedule a pre-triggered single-callback event at the current
        instant (the process resume vehicle)."""
        event = Event(self)
        event._ok = ok
        event._value = value
        event._cb = callback
        run = self._open_run
        if run is not None:
            run.append(event)
        else:
            self._schedule(self.now, event)

    def call_at(self, time: int, func: Callable[[], None]) -> None:
        """Run ``func()`` at absolute simulation time ``time``."""
        now = self.now
        if time < now:
            raise ValueError(f"call_at({time}) is in the past (now={now})")
        if time == now:
            run = self._open_run
            if run is not None:
                run.append(_Call(func))
                return
        bucket = self._buckets.get(time)
        if bucket is not None:
            bucket.append(_Call(func))
        else:
            self._buckets[time] = [_Call(func)]
            heappush(self._times, time)

    def call_in(self, delay: int, func: Callable[[], None]) -> None:
        """Run ``func()`` ``delay`` ticks from now."""
        now = self.now
        time = now + (delay if delay.__class__ is int else int(delay))
        if time < now:
            raise ValueError(f"call_at({time}) is in the past (now={now})")
        if time == now:
            run = self._open_run
            if run is not None:
                run.append(_Call(func))
                return
        bucket = self._buckets.get(time)
        if bucket is not None:
            bucket.append(_Call(func))
        else:
            self._buckets[time] = [_Call(func)]
            heappush(self._times, time)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def peek(self) -> Optional[int]:
        """Timestamp of the next agenda entry, or None if idle.

        Exact: the head of the distinct-timestamp heap.  The scale-out
        coordinator's per-window lookahead is computed from this.
        """
        return self._times[0] if self._times else None

    def run(self, until: Optional[int] = None) -> int:
        """Run until the agenda drains or the clock would pass ``until``.

        With ``until`` given, all events with timestamp ``<= until`` are
        processed and the clock is then advanced to exactly ``until``.
        Returns the final clock value.  A halt stored by a crashed
        process is raised on entry even when the agenda is empty or its
        next entry lies beyond ``until`` — a pending halt is never
        silently swallowed.
        """
        if until is not None and until < self.now:
            raise ValueError(f"run(until={until}) is in the past "
                             f"(now={self.now})")
        if self._halted is not None:
            self._raise_halt()
        limit: Any = float("inf") if until is None else until
        buckets = self._buckets
        times = self._times
        processed = 0
        start = 0  # ``processed`` before the open cohort's first entry
        time = self.now
        run_list: list[Any] = []
        try:
            while times:
                time = times[0]
                if time > limit:
                    break
                heappop(times)
                run_list = buckets.pop(time)
                self.now = time
                self._open_run = run_list
                start = processed
                # The cohort scan: run_list may grow while scanned (events
                # scheduled at this instant append to it); the list
                # iterator picks the new entries up in FIFO order.
                for event in run_list:
                    processed += 1
                    if event.__class__ is _Call:
                        event._fn()
                    else:
                        cb = event._cb
                        event._cb = _PROCESSED
                        if cb is not None:
                            if type(cb) is list:
                                for callback in cb:
                                    callback(event)
                            else:
                                cb(event)
                    if self._halted is not None:
                        self._raise_halt()
                self._open_run = None
        finally:
            self.events_processed += processed
            open_run = self._open_run
            if open_run is not None:
                # Exceptional exit mid-cohort (halt or a callback raise):
                # push the unprocessed remainder back so a later run()
                # resumes exactly where this one stopped.
                self._open_run = None
                rest = open_run[processed - start:]
                if rest:
                    buckets[time] = rest
                    heappush(times, time)
            # An exception a process failed into a waiter keeps, through
            # its traceback, this frame: drop the locals that lead back
            # to the process, so no cycle is left.
            event = cb = callback = run_list = None
        if processed:
            self.last_ns = self.now
        if until is not None:
            self.now = until
        return self.now
