"""Synchronisation and queueing primitives built on events.

These are the building blocks the hardware and kernel models share:

* :class:`Store` — a bounded FIFO of items (fiber queues, mailboxes).
* :class:`Resource` — counted mutual exclusion (bus ownership, DMA
  channels).
* :class:`Broadcast` — a repeating signal many processes can wait on.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Any

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator

INFINITY = float("inf")

#: What every waiter queue is until its first waiter parks: as falsy as
#: an empty deque, so the ``if self._putters`` fast paths cannot tell the
#: difference, but shared by all idle primitives.  Most queues of a large
#: fabric never see a waiter, and an empty ``deque`` pre-allocates a
#: 64-slot block.
_IDLE: tuple[()] = ()


class Store:
    """A FIFO item queue with optional capacity.

    ``put(item)`` and ``get()`` return events.  Puts block while the store
    is full; gets block while it is empty.  Waiters are served in FIFO
    order, which keeps simulations deterministic.
    """

    def __init__(self, sim: "Simulator", capacity: float = INFINITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] | tuple[()] = _IDLE
        self._putters: deque[tuple[Event, Any]] | tuple[()] = _IDLE

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Event that fires (with ``item``) once the item is stored."""
        event = self.sim.event()
        if not self._putters and len(self.items) < self.capacity:
            # Fast path: room available, FIFO preserved (no queued putter
            # to overtake).  Identical event ordering to _service().
            self.items.append(item)
            event.succeed(item)
            if self._getters:
                self._service()
            return event
        if self._putters is _IDLE:
            self._putters = deque()
        self._putters.append((event, item))
        self._service()
        return event

    def try_put(self, item: Any) -> bool:
        """Store ``item`` immediately if there is room; returns success."""
        if self.is_full or self._putters:
            return False
        self.items.append(item)
        self._service()
        return True

    def get(self) -> Event:
        """Event that fires with the oldest item once one is available."""
        event = self.sim.event()
        if self.items and not self._getters:
            # Fast path: an item is ready and no earlier getter waits.
            event.succeed(self.items.popleft())
            if self._putters:
                self._service()
            return event
        if self._getters is _IDLE:
            self._getters = deque()
        self._getters.append(event)
        self._service()
        return event

    def try_get(self) -> tuple[bool, Any]:
        """Pop the oldest item if present: returns ``(ok, item_or_None)``."""
        if self.items and not self._getters:
            item = self.items.popleft()
            self._service()
            return True, item
        return False, None

    def _service(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self.items) < self.capacity:
                event, item = self._putters.popleft()
                self.items.append(item)
                event.succeed(item)
                progressed = True
            while self._getters and self.items:
                event = self._getters.popleft()
                event.succeed(self.items.popleft())
                progressed = True


class Resource:
    """Counted mutual exclusion with FIFO queueing.

    ``acquire()`` returns an event that fires when a slot is granted;
    ``release()`` frees a slot.  Used for bus ownership and DMA channels.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[Event] | tuple[()] = _IDLE

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self, priority: bool = False) -> Event:
        """Request a slot.  ``priority=True`` jumps the wait queue
        (used for interrupt-context work that must preempt thread-level
        work at the next quantum boundary)."""
        sim = self.sim
        event = Event(sim)
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
            # The immediate grant: Event.succeed() inlined.
            event._ok = True
            event._value = None
            run = sim._open_run
            if run is not None:
                run.append(event)
                return event
            time = sim.now
            bucket = sim._buckets.get(time)
            if bucket is not None:
                bucket.append(event)
            else:
                sim._buckets[time] = [event]
                heappush(sim._times, time)
            return event
        if self._waiters is _IDLE:
            self._waiters = deque()
        if priority:
            self._waiters.appendleft(event)
        else:
            self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Take a slot now if one is free and nobody is queued for it.

        The no-event form of an uncontended FIFO ``acquire()``: holders
        of resources nobody ever takes with ``priority=True`` write
        ``if not r.try_acquire(): yield r.acquire()``.
        """
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
            return True
        return False

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError("release() without matching acquire()")
        if self._waiters:
            event = self._waiters.popleft()
            event.succeed()
        else:
            self.in_use -= 1


class Broadcast:
    """A repeating signal: every ``fire`` wakes all current waiters.

    Unlike :class:`~repro.sim.events.Event`, a Broadcast can fire many
    times; each ``wait()`` returns a fresh one-shot event tied to the next
    firing.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._waiters: list[Event] = []

    def wait(self) -> Event:
        event = self.sim.event()
        self._waiters.append(event)
        return event

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed(value)
        return len(waiters)
