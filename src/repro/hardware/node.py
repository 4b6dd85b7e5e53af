"""Node hosts: the existing machines plugged into Nectar (§3.2, §6.2.3).

A node is "any system running UNIX or Mach with a VME interface" — Sun-3s,
Sun-4s and Warps in the prototype.  What matters to Nectar's latency story
is the node's *software* cost profile: syscalls, copies, interrupts and
scheduling dominate end-to-end time on current LANs (§3.1).  The model
charges those costs explicitly; node application code runs as simulator
processes using the cost helpers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..config import (COPY_BYTES_PER_NS, KERNEL_PROTOCOL_NS, NODE_INTERRUPT_NS,
                      SCHEDULING_LATENCY_NS, SYSCALL_NS)
from ..errors import NodeError
from ..sim import Process, Resource, Simulator, units

if TYPE_CHECKING:  # pragma: no cover
    from .cab import CabBoard


class NodeHost:
    """A general-purpose or specialised machine attached via a CAB."""

    def __init__(self, sim: Simulator, name: str,
                 machine_type: str = "sun") -> None:
        self.sim = sim
        self.name = name
        self.machine_type = machine_type
        self.cpu = Resource(sim, capacity=1)
        self.cab: Optional["CabBoard"] = None
        self.busy_ns = 0
        self.syscalls = 0
        self.interrupts = 0
        self.copies_bytes = 0
        self._processes: list[Process] = []

    # ------------------------------------------------------------------

    def attach_cab(self, cab: "CabBoard") -> None:
        if self.cab is not None:
            raise NodeError(f"{self.name} already has a CAB")
        self.cab = cab

    def run(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a node process (application or kernel activity)."""
        process = self.sim.process(generator,
                                   name=f"{self.name}.{name or 'proc'}")
        self._processes.append(process)
        process.add_callback(lambda _e: self._processes.remove(process)
                             if process in self._processes else None)
        return process

    # ------------------------------------------------------------------
    # cost helpers (all generators; they serialise on the node CPU)
    # ------------------------------------------------------------------

    def _charge(self, cost_ns: int):
        if cost_ns <= 0:
            return
        if not self.cpu.try_acquire():
            yield self.cpu.acquire()
        try:
            yield cost_ns
            self.busy_ns += cost_ns
        finally:
            self.cpu.release()

    def compute(self, cost_ns: int):
        """Plain user-level computation."""
        yield from self._charge(cost_ns)

    def syscall_cost(self):
        """Kernel entry/exit for one system call."""
        self.syscalls += 1
        yield from self._charge(SYSCALL_NS)

    def interrupt_cost(self):
        """Service one device interrupt."""
        self.interrupts += 1
        yield from self._charge(NODE_INTERRUPT_NS)

    def schedule_cost(self):
        """Wakeup-to-run latency for a blocked process."""
        yield from self._charge(SCHEDULING_LATENCY_NS)

    def copy(self, num_bytes: int):
        """Memory-to-memory copy on the node."""
        if num_bytes <= 0:
            return
        self.copies_bytes += num_bytes
        yield from self._charge(
            units.transfer_time(num_bytes, COPY_BYTES_PER_NS))

    def kernel_protocol_cost(self):
        """In-kernel protocol processing for one packet (interface 3 and
        the LAN baseline: the node runs the whole transport itself)."""
        yield from self._charge(KERNEL_PROTOCOL_NS)

    # ------------------------------------------------------------------
    # VME access to CAB memory (§6.2.3 interface 1: mapped shared memory)
    # ------------------------------------------------------------------

    def vme_write(self, num_bytes: int):
        """Write into mapped CAB memory (the node is bus master)."""
        if self.cab is None:
            raise NodeError(f"{self.name} has no CAB attached")
        yield from self.cab.vme.transfer(num_bytes)

    def vme_read(self, num_bytes: int):
        """Read from mapped CAB memory."""
        if self.cab is None:
            raise NodeError(f"{self.name} has no CAB attached")
        yield from self.cab.vme.transfer(num_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NodeHost {self.name} ({self.machine_type})>"
