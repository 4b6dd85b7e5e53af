"""The VME bus between a node and its CAB (§5.2).

The CAB occupies a 24-bit region of the node's VME address space; node and
CAB communicate through shared buffers, DMA, and VME interrupts.  The bus
moves 10 MB/s and admits one bus master at a time.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..config import VME_BYTES_PER_NS
from ..sim import Resource, Simulator, units

__all__ = ["VmeBus"]


class VmeBus:
    """A single-master bus shared by the node and the CAB."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._bus = Resource(sim, capacity=1)
        self.bytes_transferred = 0
        self.interrupts_to_node = 0
        self.interrupts_to_cab = 0
        self._node_handler: Optional[Callable[[int], None]] = None
        self._cab_handler: Optional[Callable[[int], None]] = None

    def transfer(self, num_bytes: int, rate: Optional[float] = None):
        """Timed bus transfer (generator).  One master at a time."""
        if num_bytes <= 0:
            return
        if not self._bus.try_acquire():
            yield self._bus.acquire()
        try:
            effective = min(rate or VME_BYTES_PER_NS, VME_BYTES_PER_NS)
            yield units.transfer_time(num_bytes, effective)
            self.bytes_transferred += num_bytes
        finally:
            self._bus.release()

    def register_metrics(self, sampler) -> None:
        """Sampled bus utilization and cumulative interrupt counts."""
        sampler.add_utilization_probe(
            f"{self.name}.util", lambda: self.bytes_transferred,
            1.0 / VME_BYTES_PER_NS,
            description="VME bus busy fraction (10 MB/s ceiling, §5.2)")
        sampler.add_probe(
            f"{self.name}.irq_node", lambda: float(self.interrupts_to_node),
            description="cumulative CAB-to-node interrupts", unit="irqs")
        sampler.add_probe(
            f"{self.name}.irq_cab", lambda: float(self.interrupts_to_cab),
            description="cumulative node-to-CAB interrupts", unit="irqs")

    # ------------------------------------------------------------------
    # interrupts
    # ------------------------------------------------------------------

    def on_node_interrupt(self, handler: Callable[[int], None]) -> None:
        self._node_handler = handler

    def on_cab_interrupt(self, handler: Callable[[int], None]) -> None:
        self._cab_handler = handler

    def interrupt_node(self, vector: int = 0) -> None:
        """CAB → node interrupt (message delivery, service completion)."""
        self.interrupts_to_node += 1
        if self._node_handler is not None:
            self._node_handler(vector)

    def interrupt_cab(self, vector: int = 0) -> None:
        """Node → CAB interrupt (service requests)."""
        self.interrupts_to_cab += 1
        if self._cab_handler is not None:
            self._cab_handler(vector)
