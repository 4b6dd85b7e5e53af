"""The CAB's DMA controller (§5.1–5.2).

The controller manages simultaneous transfers between the incoming and
outgoing fibers and CAB memory, and between VME and CAB memory, leaving
the CPU free for protocol and application processing.  It also handles
flow control: it waits for data to arrive if the input queue is empty and
for data to drain if the output queue is full.

One channel per direction; each channel is busy for the duration of its
transfer.  Memory-bandwidth accounting goes through the board's
:class:`~repro.hardware.memory.BandwidthPool`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import DMA_START_NS, FIBER_BYTES_PER_NS, VME_BYTES_PER_NS
from ..sim import Resource

__all__ = ["DmaController"]

if TYPE_CHECKING:  # pragma: no cover
    from .cab import CabBoard
    from .frames import Packet

#: Bytes the inbound DMA may lag behind the fiber (burst granularity).
DRAIN_RESIDUAL_BYTES = 32


class DmaController:
    """Four-port DMA engine: fiber-in, fiber-out, VME-in, VME-out."""

    def __init__(self, cab: "CabBoard") -> None:
        self.cab = cab
        self.sim = cab.sim
        self.fiber_out = Resource(self.sim, capacity=1)
        self.fiber_in = Resource(self.sim, capacity=1)
        self.vme_in = Resource(self.sim, capacity=1)
        self.vme_out = Resource(self.sim, capacity=1)
        self.transfers = 0
        self.bytes_out = 0
        self.bytes_in = 0

    def register_metrics(self, sampler) -> None:
        """Sampled channel occupancy and cumulative transfer volume.

        Each channel's busy level is sampled as 0/1 (the channels are
        capacity-1 resources); the mean of the series over a run is the
        channel's busy fraction — the number the paper's §5.1 concurrency
        argument is about.
        """
        base = f"{self.cab.name}.dma"
        for channel_name, channel in (("fiber_out", self.fiber_out),
                                      ("fiber_in", self.fiber_in),
                                      ("vme_in", self.vme_in),
                                      ("vme_out", self.vme_out)):
            sampler.add_probe(
                f"{base}.{channel_name}_busy",
                lambda channel=channel: float(channel.in_use),
                description=f"DMA {channel_name} channel occupancy")
        sampler.add_probe(
            f"{base}.bytes_out", lambda: float(self.bytes_out),
            description="cumulative bytes DMAed to the fiber", unit="bytes")
        sampler.add_probe(
            f"{base}.bytes_in", lambda: float(self.bytes_in),
            description="cumulative bytes DMAed from the fiber",
            unit="bytes")

    # ------------------------------------------------------------------

    def send_packet(self, packet: "Packet"):
        """DMA a packet from data memory to the outgoing fiber (generator).

        Completes when the tail has left the CAB; memory is read at fiber
        pace for the duration ("gathers the packet when it transfers the
        data to the fiber output queue using DMA", §6.2.1).
        """
        if not self.fiber_out.try_acquire():
            yield self.fiber_out.acquire()
        stream = self.cab.memory_pool.open_stream(FIBER_BYTES_PER_NS)
        try:
            yield DMA_START_NS
            yield self.cab.transmit(packet)
            self.transfers += 1
            self.bytes_out += packet.wire_size()
        finally:
            self.cab.memory_pool.close_stream(stream)
            self.fiber_out.release()

    def drain_input(self, wire_size: int, tail_time: int):
        """DMA an arrived packet from the input queue to memory (generator).

        The DMA keeps pace with the fiber, so completion is bounded by the
        tail's arrival plus a small burst residual.
        """
        if not self.fiber_in.try_acquire():
            yield self.fiber_in.acquire()
        stream = self.cab.memory_pool.open_stream(FIBER_BYTES_PER_NS)
        try:
            yield DMA_START_NS
            remaining = tail_time - self.sim.now
            if remaining > 0:
                # Flow control: wait for the data to arrive (§5.2).
                yield remaining
            residual = min(wire_size, DRAIN_RESIDUAL_BYTES)
            yield from self.cab.memory_pool.transfer(
                residual, self.cab.memory_pool.capacity)
            self.transfers += 1
            self.bytes_in += wire_size
        finally:
            self.cab.memory_pool.close_stream(stream)
            self.fiber_in.release()

    def vme_transfer(self, num_bytes: int, to_cab: bool):
        """DMA between node memory and CAB data memory over VME (generator)."""
        channel = self.vme_in if to_cab else self.vme_out
        if not channel.try_acquire():
            yield channel.acquire()
        stream = self.cab.memory_pool.open_stream(VME_BYTES_PER_NS)
        try:
            yield DMA_START_NS
            yield from self.cab.vme.transfer(num_bytes)
            self.transfers += 1
        finally:
            self.cab.memory_pool.close_stream(stream)
            channel.release()
