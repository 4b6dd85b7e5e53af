"""Unidirectional fiber-optic links (§3.2).

Each fiber carries 100 Mb/s (TAXI-limited), i.e. 80 ns/byte, plus a small
propagation delay.  Packets serialise FIFO; replies "steal cycles" and are
never blocked (§4.2.1), modelled by :meth:`Fiber.send_priority`.

The transmit side is an idle/busy state machine, not a process: an idle
fiber starts serialising inside :meth:`Fiber.send`, one ``call_in`` ends
the packet, and only a send that finds the line busy waits in a backlog.
An agenda entry exists where simulated time passes (the tail leaving,
the head arriving) or somebody waits (``done``) — nowhere else.

Fault injection (drop/corrupt probabilities from
:class:`~repro.config.FiberConfig`) lives here because a 1989 fiber run
really was where bits died; reliable transports recover from it.
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol

from ..config import FIBER_BYTES_PER_NS, FIBER_NS_PER_BYTE, FiberConfig
from ..sim import Event, Simulator, units
from ..sim.resources import _IDLE
from .frames import Packet, Reply

__all__ = ["FiberEndpoint", "Fiber", "RngFactory"]

#: Maps a fiber name to its fault-injection RNG; system builders pass
#: :meth:`~repro.config.NectarConfig.rng_stream` so every link gets an
#: independent, seed-derived stream.
RngFactory = Callable[[str], random.Random]


def _unseeded_stream(name: str) -> random.Random:
    """The stream of a fiber built outside any system: still per link."""
    return random.Random(f"fiber:{name}")


def _size_of(item: Any) -> int:
    """Bytes ``item`` occupies on the wire (a packet or a reply)."""
    if isinstance(item, Packet):
        return item.wire_size()
    if isinstance(item, Reply):
        return item.wire_size
    raise TypeError(f"cannot size {item!r}")

if TYPE_CHECKING:  # pragma: no cover
    pass


class FiberEndpoint(Protocol):
    """Anything that can terminate a fiber (a HUB port or a CAB)."""

    def deliver(self, item: Any, wire_size: int) -> None:
        """Called when the item's *head* arrives.  ``wire_size`` lets the
        receiver compute when the tail will have arrived."""


#: Indices into :attr:`Fiber.stats` — one flat int list per fiber so the
#: per-packet accounting is two index stores on a local, not four
#: attribute chases through the instance dict.
_SENT, _DROPPED, _REPLIES_DROPPED, _BYTES = range(4)


class Fiber:
    """One direction of a fiber pair.

    Idle (``_sending is None``) or busy serialising one packet
    (``_sending`` is its ``(size, done)``); sends that find it busy wait
    in ``_backlog`` and start, in order, as each tail leaves.  The backlog
    is the shared empty tuple until the first send has to wait.
    """

    # Slots make every hot attribute a fixed-offset load on the transmit path.
    __slots__ = ("sim", "cfg", "name", "_rng", "_rng_factory", "endpoint",
                 "_sending", "_backlog", "_head_latency", "_xfer_cache",
                 "fault_down", "fault_drop", "fault_corrupt",
                 "fault_reply_drop", "stats")

    def __init__(self, sim: Simulator, cfg: FiberConfig, name: str,
                 rng: Optional[random.Random] = None,
                 rng_factory: Optional[RngFactory] = None) -> None:
        self.sim = sim
        self.cfg = cfg
        self.name = name
        # Each link gets its own fault stream, derived from the link name
        # so fibers never drop/corrupt in lockstep.  System builders pass
        # :meth:`~repro.config.NectarConfig.rng_stream` as ``rng_factory``;
        # the stream is made at the first draw (see :attr:`rng`), because
        # a fault-free link never draws and a seeded Mersenne Twister is
        # 2.5 KB per fiber.
        self._rng = rng
        self._rng_factory = rng_factory or _unseeded_stream
        self.endpoint: Optional[FiberEndpoint] = None
        self._sending: Optional[tuple[int, Event]] = None
        self._backlog: deque[tuple[Any, int, Event]] | tuple[()] = _IDLE
        # Per-packet timing is pure arithmetic over a fixed rate, so the
        # head latency is computed once and serialization times are memoized
        # per wire size (fragment sizes repeat heavily under load).
        self._head_latency = (cfg.propagation_ns
                              + units.transfer_time(1, FIBER_BYTES_PER_NS))
        self._xfer_cache: dict[int, int] = {}
        # Fault-injection overlay (``repro.faults``).  Per-fiber state so
        # a campaign degrading one link never mutates the FiberConfig,
        # which is shared by every fiber in the system.
        self.fault_down = False
        self.fault_drop = 0.0
        self.fault_corrupt = 0.0
        self.fault_reply_drop = 0.0
        # Statistics, packed into one flat list (see the _SENT.._BYTES
        # index constants); the named views below are the public API.
        self.stats = [0, 0, 0, 0]

    @property
    def rng(self) -> random.Random:
        """This link's fault stream, materialised at the first draw."""
        rng = self._rng
        if rng is None:
            rng = self._rng = self._rng_factory(self.name)
        return rng

    @property
    def packets_sent(self) -> int:
        """Packets fully serialised onto the line."""
        return self.stats[_SENT]

    @property
    def packets_dropped(self) -> int:
        """Packets killed by fault injection (framing error or vanish)."""
        return self.stats[_DROPPED]

    @property
    def replies_dropped(self) -> int:
        """Replies/ready signals lost to injected faults."""
        return self.stats[_REPLIES_DROPPED]

    @property
    def bytes_sent(self) -> int:
        """Cumulative bytes serialised (drives utilization probes)."""
        return self.stats[_BYTES]

    def connect(self, endpoint: FiberEndpoint) -> None:
        if self.endpoint is not None:
            raise RuntimeError(f"fiber {self.name} already terminated")
        self.endpoint = endpoint

    # ------------------------------------------------------------------

    def send(self, item: Any) -> Event:
        """Queue ``item`` for transmission; event fires when the tail has
        left this end of the fiber."""
        size = _size_of(item)
        done = self.sim.event()
        if self._sending is None:
            self._start(item, size, done)
        else:
            if self._backlog is _IDLE:
                self._backlog = deque()
            self._backlog.append((item, size, done))
        return done

    def send_priority(self, item: Any) -> None:
        """Transmit by cycle-stealing: never waits for queued traffic.

        Used for replies and ready signals, which the hardware guarantees
        reach the origin "within a bounded amount of time" (§4.2.1) —
        unless the fiber itself is faulted: replies have no framing-error
        recovery path, so a downed link or a reply-loss storm makes them
        vanish, exercising the sender's timeout-and-retry machinery.
        """
        size = _size_of(item)
        if self.fault_down or (self.fault_reply_drop > 0.0
                               and self.rng.random() < self.fault_reply_drop):
            self.stats[_REPLIES_DROPPED] += 1
            return
        latency = self.cfg.propagation_ns + self._serialization(size)
        self.stats[_BYTES] += size
        self._schedule_delivery(latency, item, size)

    def _serialization(self, size: int) -> int:
        """Memoized ``transfer_time`` for this fiber's fixed byte rate."""
        ticks = self._xfer_cache.get(size)
        if ticks is None:
            ticks = units.transfer_time(size, FIBER_BYTES_PER_NS)
            self._xfer_cache[size] = ticks
        return ticks

    def _start(self, item: Any, size: int, done: Event) -> None:
        """The line is free: put ``item``'s head on it now."""
        self._sending = (size, done)
        # Cut-through: the head arrives after propagation plus one byte
        # time; the line stays busy until the tail has been serialised.
        deliver = True
        if self._faulted(item):
            self.stats[_DROPPED] += 1
            if isinstance(item, Packet):
                # A damaged packet still arrives and drains queues —
                # the framing error is detected at reception, so
                # flow-control (ready bit) accounting stays sound.
                item.framing_error = True
            else:
                deliver = False  # replies/ready signals just vanish
        else:
            self._corrupt_maybe(item)
        if deliver:
            self._schedule_delivery(self._head_latency, item, size)
        self.sim.call_in(self._serialization(size), self._tail_left)

    def _tail_left(self) -> None:
        """The tail has been serialised: fire ``done``, start the next."""
        size, done = self._sending
        stats = self.stats
        stats[_SENT] += 1
        stats[_BYTES] += size
        done.succeed()
        if self._backlog:
            self._start(*self._backlog.popleft())
        else:
            self._sending = None

    def _schedule_delivery(self, latency: int, item: Any, size: int) -> None:
        """Commit a delivery ``latency`` ticks from now.

        The single seam between "this item left the near end" and "this
        item arrives at the far end": both the cut-through path and the
        cycle-stealing priority path land here.  Partitioned scale-out
        runs (:mod:`repro.scaleout`) subclass this to capture the
        delivery into a cross-partition outbox instead of scheduling a
        local event — the ``now + latency`` arrival time is exactly what
        the conservative-lookahead protocol exchanges.
        """
        self.sim.call_in(latency, lambda: self._deliver(item, size))

    def _deliver(self, item: Any, size: int) -> None:
        if self.endpoint is None:
            raise RuntimeError(f"fiber {self.name} has no endpoint")
        self.endpoint.deliver(item, size)

    def set_fault(self, *, down: Optional[bool] = None,
                  drop: Optional[float] = None,
                  corrupt: Optional[float] = None,
                  reply_drop: Optional[float] = None) -> None:
        """Apply a fault overlay (``repro.faults`` injection window).

        Only the keywords given are changed, so overlapping windows on
        different dimensions (e.g. a drop burst inside a reply storm)
        compose without clobbering each other.
        """
        if down is not None:
            self.fault_down = down
        if drop is not None:
            self.fault_drop = drop
        if corrupt is not None:
            self.fault_corrupt = corrupt
        if reply_drop is not None:
            self.fault_reply_drop = reply_drop

    def _faulted(self, item: Any) -> bool:
        if self.fault_down:
            return True
        drop = max(self.cfg.drop_probability, self.fault_drop)
        if drop <= 0.0:
            return False
        return self.rng.random() < drop

    def _corrupt_maybe(self, item: Any) -> None:
        corrupt = max(self.cfg.corrupt_probability, self.fault_corrupt)
        if corrupt <= 0.0:
            return
        if isinstance(item, Packet) and item.payload is not None:
            if self.rng.random() < corrupt:
                item.payload.corrupt = True

    def register_metrics(self, sampler, prefix: Optional[str] = None) -> None:
        """Sampled link health: utilization, cumulative sends and drops."""
        base = prefix or f"fiber.{self.name}"
        sampler.add_utilization_probe(
            f"{base}.util", lambda: self.bytes_sent, FIBER_NS_PER_BYTE,
            description="fiber busy fraction (bytes serialised / interval)")
        sampler.add_probe(
            f"{base}.packets", lambda: float(self.packets_sent),
            description="cumulative packets serialised", unit="packets")
        sampler.add_probe(
            f"{base}.drops", lambda: float(self.packets_dropped),
            description="cumulative fault-injected drops", unit="packets")
        sampler.add_probe(
            f"{base}.reply_drops", lambda: float(self.replies_dropped),
            description="replies/ready signals lost to injected faults",
            unit="replies")

    def tail_delay(self, wire_size: int) -> int:
        """Ticks between head delivery and tail arrival for ``wire_size``."""
        serialization = units.transfer_time(wire_size, FIBER_BYTES_PER_NS)
        first_byte = units.transfer_time(1, FIBER_BYTES_PER_NS)
        return max(serialization - first_byte, 0)

