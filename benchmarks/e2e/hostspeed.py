"""How fast is this host right now?  A fixed kernel timed between repetitions.

The capture host (a 2-vCPU Firecracker guest) changes speed under its
neighbours' load: the same simulator run took 2.0 s, then 3.6-3.9 s
twenty minutes later, with nothing else running in the guest and about
a tenth of the loss recorded as steal time.  Wall seconds from two runs
minutes apart then differ by more than any bound worth gating on,
whatever is repeated inside one run.  So every timed repetition is
*paired* with this kernel, run just before and just after it, and
``run_s`` / ``setup_s`` are reported in seconds **at the reference host
speed**::

    reported = wall_seconds / slowdown
    slowdown = kernel seconds around the repetition / REFERENCE_S

The kernel is a small discrete-event loop written against the standard
library only — generator processes resumed from a ``heapq`` agenda,
short-lived event objects, callback lists, deques, dict counters,
small ``bytes`` frames — because a slow spell does not slow all code
alike (an arithmetic loop 1.5x, the simulator 1.8x, a heap-only loop
2.3x in one spell), and a kernel with the simulator's own mix follows
it closest.  It uses nothing from ``src/``, so no change to the
simulator can move it, and it must never change itself: ``run_s``
values are only comparable under one kernel and one ``REFERENCE_S``.

Pairing removes the slow drift (minutes), not the fast noise: the
host's speed also moves by 10-30 % from one second to the next,
independently on each vCPU, and a reading a few tenths of a second long
cannot follow that.  Medians over the repetitions deal with it as far
as anything can.
"""

from __future__ import annotations

import heapq
import statistics
import time
from collections import deque

__all__ = ["REFERENCE_S", "slowdown"]

#: Kernel seconds on the capture host at its usual (unloaded) speed:
#: there, reported seconds equal wall seconds.
REFERENCE_S = 0.080
#: Kernel runs behind one reading (their median is taken).
READINGS = 5

_STATIONS = 600
_STEPS = 30_000


class _Event:
    __slots__ = ("time", "callbacks", "value")

    def __init__(self, when: int) -> None:
        self.time = when
        self.callbacks: list = []
        self.value = None


class _Port:
    def __init__(self, index: int) -> None:
        self.index = index
        self.queue: deque = deque()
        self.counters = {"in": 0, "out": 0, "bytes": 0}
        self.peer = self

    def push(self, frame: bytes) -> None:
        self.queue.append(frame)
        self.counters["in"] += 1
        self.counters["bytes"] += len(frame)

    def pop(self) -> bytes:
        self.counters["out"] += 1
        return self.queue.popleft()


class _Loop:
    """Stations on a ring send each other 72-byte frames at seeded times."""

    def __init__(self) -> None:
        self.now = 0
        self.sequence = 0
        self.agenda: list = []
        self.state = 12345
        ports = [_Port(index) for index in range(_STATIONS)]
        for index, port in enumerate(ports):
            port.peer = ports[(index * 7 + 1) % _STATIONS]
            self.timeout(0).callbacks.append(self.station(port).send)

    def timeout(self, delay: int) -> _Event:
        self.sequence += 1
        event = _Event(self.now + delay)
        heapq.heappush(self.agenda, (event.time, self.sequence, event))
        return event

    def draw(self) -> int:
        self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
        return self.state

    def station(self, port: _Port):
        payload = bytes(64)
        while True:
            yield self.timeout(1 + self.draw() % 997)
            header = port.index.to_bytes(2, "big") \
                + self.now.to_bytes(6, "big")
            port.peer.push(header + payload)
            # Drain faster than the peer fills, so queues stay short
            # however long the loop lives.
            for _ in range(min(2, len(port.queue))):
                port.counters["bytes"] -= len(port.pop())

    def run(self, steps: int) -> None:
        agenda = self.agenda
        for _ in range(steps):
            self.now, _, event = heapq.heappop(agenda)
            for callback in event.callbacks:
                waits_for = callback(event.value)
                waits_for.callbacks.append(callback)


#: One loop for the life of the process: it is in its steady state after
#: the first reading, and a fresh one per reading would leave cyclic
#: garbage behind that shows in the workload's ``peak_rss_mib``.
_LOOP = _Loop()


def _kernel_s() -> float:
    start = time.perf_counter()
    _LOOP.run(_STEPS)
    return time.perf_counter() - start


def slowdown() -> float:
    """This host's present speed: 1.0 at the reference, 2.0 = half as fast."""
    return statistics.median(_kernel_s() for _ in range(READINGS)) \
        / REFERENCE_S
