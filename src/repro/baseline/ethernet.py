"""Baseline LAN: 10 Mb/s CSMA/CD Ethernet with kernel protocol stacks.

§3.1 claims "the Nectar-net offers at least an order of magnitude
improvement in bandwidth and latency over current LANs", whose profiles
(refs [3,5,11]) are dominated by node software.  This module provides the
comparison system: a shared medium with carrier sense, collisions and
binary exponential backoff, plus hosts that pay late-1980s kernel-stack
costs per packet.

Collision model: stations that begin transmitting in the same simulator
tick collide (stations waiting for a busy medium wake together at its
release, which is where real collisions cluster); they jam for one slot
time and back off.  Finer sub-slot vulnerability windows are below the
fidelity this comparison needs.
"""

from __future__ import annotations

import random
from typing import Optional

from ..config import (FRAME_OVERHEAD_BYTES, INTERFRAME_GAP_NS,
                      LAN_BYTES_PER_NS, LAN_HOST_RECEIVE_NS, LAN_HOST_SEND_NS,
                      LAN_MAX_ATTEMPTS, LAN_MTU_BYTES, MAX_BACKOFF_EXPONENT,
                      MIN_FRAME_BYTES, SLOT_TIME_NS)
from ..errors import NectarError
from ..sim import Event, Simulator, Store, units
from ..transport.base import slice_data


class LanError(NectarError):
    """Excessive collisions: the interface gave up on a frame."""


class EthernetMedium:
    """The shared coax segment."""

    def __init__(self, sim: Simulator,
                 rng: Optional[random.Random] = None) -> None:
        self.sim = sim
        self.rng = rng or random.Random(0)
        self.free_at = 0
        self.collisions = 0
        self.frames_carried = 0
        self._starters: list[tuple[Event, int]] = []
        self._resolving = False

    @property
    def busy(self) -> bool:
        return self.sim.now < self.free_at

    def attempt(self, frame_ns: int) -> Event:
        """Begin transmitting now; the event fires True (sent) or False
        (collision).  All attempts in the same tick collide."""
        outcome = self.sim.event()
        self._starters.append((outcome, frame_ns))
        if not self._resolving:
            self._resolving = True
            self.sim.call_in(0, self._resolve)
        return outcome

    def _resolve(self) -> None:
        starters, self._starters = self._starters, []
        self._resolving = False
        if len(starters) == 1:
            outcome, frame_ns = starters[0]
            self.free_at = self.sim.now + frame_ns + INTERFRAME_GAP_NS
            self.frames_carried += 1
            outcome.succeed(True)
            return
        self.collisions += 1
        self.free_at = self.sim.now + SLOT_TIME_NS
        for outcome, _frame_ns in starters:
            outcome.succeed(False)


class EthernetStation:
    """One network interface on the segment."""

    def __init__(self, medium: EthernetMedium, name: str) -> None:
        self.medium = medium
        self.sim = medium.sim
        self.name = name
        self.rx_frames: Store = Store(self.sim)
        self.frames_sent = 0
        self._peers: dict[str, "EthernetStation"] = {}

    def register_peer(self, station: "EthernetStation") -> None:
        self._peers[station.name] = station

    def frame_time(self, payload_bytes: int) -> int:
        wire_bytes = max(payload_bytes + FRAME_OVERHEAD_BYTES, MIN_FRAME_BYTES)
        return units.transfer_time(wire_bytes, LAN_BYTES_PER_NS)

    def send_frame(self, dst: str, payload_bytes: int,
                   frame: Optional[dict] = None):
        """CSMA/CD transmission of one frame (generator)."""
        attempts = 0
        backoff_slots = 0
        frame_ns = self.frame_time(payload_bytes)
        while True:
            # Carrier sense: defer while the medium is busy.
            while self.medium.busy:
                yield self.medium.free_at - self.sim.now
            if backoff_slots:
                # Backoff counts *idle* slots: stations that deferred to
                # the same transmission separate here instead of waking
                # together at its end and colliding forever.
                yield backoff_slots * SLOT_TIME_NS
                if self.medium.busy:
                    continue  # someone with a shorter draw got in first
            sent = yield self.medium.attempt(frame_ns)
            if sent:
                break
            attempts += 1
            if attempts >= LAN_MAX_ATTEMPTS:
                raise LanError(f"{self.name}: frame dropped after "
                               f"{attempts} collisions")
            exponent = min(attempts, MAX_BACKOFF_EXPONENT)
            backoff_slots = self.medium.rng.randrange(2 ** exponent)
        self.frames_sent += 1
        target = self._peers.get(dst)
        if target is None:
            raise LanError(f"{self.name}: unknown station {dst!r}")
        payload = dict(frame or {}, src=self.name, size=payload_bytes)
        self.sim.call_in(frame_ns, lambda: target.rx_frames.put(payload))
        # One transceiver per station: hold until the frame has left.
        yield frame_ns


class LanHost:
    """A UNIX host on the Ethernet, running its protocol stack in-kernel."""

    def __init__(self, medium: EthernetMedium, name: str) -> None:
        self.medium = medium
        self.sim = medium.sim
        self.name = name
        self.station = EthernetStation(medium, name)
        self._ports: dict[str, Store] = {}
        self._partials: dict[tuple[str, int], dict] = {}
        self._msg_ids = iter(range(1, 1 << 60))
        self.sim.process(self._rx_pump(), name=f"{name}.eth-rx")

    def open_port(self, port: str) -> Store:
        if port in self._ports:
            raise LanError(f"port {port!r} already open on {self.name}")
        self._ports[port] = Store(self.sim)
        return self._ports[port]

    def send_message(self, dst_host: str, port: str, size: int,
                     data: Optional[bytes] = None):
        """Send one message: per-packet kernel stack + CSMA/CD frames."""
        fragments = slice_data(data, size, LAN_MTU_BYTES)
        msg_id = next(self._msg_ids)
        for index, (frag_size, chunk) in enumerate(fragments):
            # Kernel stack on the sender (socket layer, copies, headers).
            yield LAN_HOST_SEND_NS
            yield from self.station.send_frame(
                dst_host, frag_size,
                frame={"port": port, "msg_id": msg_id, "frag": index,
                       "nfrags": len(fragments), "total": size,
                       "data": chunk})

    def receive(self, port: str):
        """Blocking read of the next complete message on ``port``."""
        store = self._ports.get(port)
        if store is None:
            raise LanError(f"port {port!r} not open on {self.name}")
        message = yield store.get()
        return message

    def _rx_pump(self):
        while True:
            frame = yield self.station.rx_frames.get()
            # Kernel stack on the receiver (interrupt, IP/TCP, wakeup).
            yield LAN_HOST_RECEIVE_NS
            if "msg_id" not in frame:
                continue  # raw station-level frame, not host traffic
            key = (frame["src"], frame["msg_id"])
            partial = self._partials.setdefault(
                key, {"got": 0, "chunks": {}, "total": frame["total"],
                      "nfrags": frame["nfrags"], "port": frame["port"],
                      "first_at": self.sim.now})
            partial["chunks"][frame["frag"]] = frame.get("data")
            partial["got"] += 1
            if partial["got"] < partial["nfrags"]:
                continue
            del self._partials[key]
            chunks = [partial["chunks"][i] for i in range(partial["nfrags"])]
            data = None if any(c is None for c in chunks) else b"".join(chunks)
            store = self._ports.get(partial["port"])
            if store is not None:
                store.put({"src": frame["src"], "size": partial["total"],
                           "data": data, "delivered_at": self.sim.now})


class EthernetLan:
    """Convenience wrapper: a medium plus named hosts, fully meshed."""

    def __init__(self, sim: Simulator,
                 rng: Optional[random.Random] = None) -> None:
        self.sim = sim
        self.medium = EthernetMedium(sim, rng)
        self.hosts: dict[str, LanHost] = {}

    def add_host(self, name: str) -> LanHost:
        if name in self.hosts:
            raise LanError(f"duplicate host {name!r}")
        host = LanHost(self.medium, name)
        for other in self.hosts.values():
            host.station.register_peer(other.station)
            other.station.register_peer(host.station)
        self.hosts[name] = host
        return host
