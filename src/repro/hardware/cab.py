"""The CAB (communication accelerator board) hardware model (§5, Figure 8).

The board combines a 16 MHz RISC CPU, fast program and data memories with
a shared bandwidth budget, a DMA controller, a fiber interface (the same
circuit as a HUB I/O port), a VME interface to the node, page-level memory
protection with multiple domains, a hardware checksum unit, and hardware
timers.  Software (the CAB kernel, datalink and transport layers) runs on
top of this class via the hooks it exposes.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from ..config import (DATA_MEMORY_BYTES, FIBER_BYTES_PER_NS,
                      INTERRUPT_OVERHEAD_NS, MEMORY_BYTES_PER_NS,
                      PROGRAM_MEMORY_BYTES, CabConfig, FiberConfig)
from ..sim import Broadcast, Event, Resource, Simulator, units
from .checksum import ChecksumUnit
from .dma import DmaController
from .frames import HubCommand, Packet, Reply
from .memory import BandwidthPool, MemoryRegion, ProtectionUnit
from .timers import HardwareTimers
from .vme import VmeBus

__all__ = ["CabCpu", "CabBoard"]

if TYPE_CHECKING:  # pragma: no cover
    from .fiber import Fiber
    from .hub_port import HubPort


class CabCpu:
    """The CAB's RISC CPU: a serially shared execution resource.

    Interrupts preempt thread-level work: thread computation is charged
    in small quanta, and interrupt handlers jump the wait queue, so an
    interrupt begins within one quantum of arriving — the behaviour the
    upcall deadline of §6.2.1 depends on.  Handlers skip the thread-
    switch cost (the SPARC reserves a register window for traps) but pay
    a small dispatch overhead.
    """

    #: Preemption granularity for thread-level computation.
    QUANTUM_NS = 10_000

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._resource = Resource(sim, capacity=1)
        self.busy_ns = 0
        self.interrupt_count = 0

    def execute(self, cost_ns: int):
        """Charge ``cost_ns`` of thread-level CPU time (generator).

        Work is consumed in quanta so interrupt-context work can slot in
        between them (cooperative model of preemption).
        """
        remaining = int(cost_ns)
        resource = self._resource
        quantum_ns = self.QUANTUM_NS
        while remaining > 0:
            quantum = remaining if remaining < quantum_ns else quantum_ns
            yield resource.acquire()
            yield quantum
            self.busy_ns += quantum
            resource.release()
            remaining -= quantum

    def execute_interrupt(self, cost_ns: int):
        """Run an interrupt handler: preempts threads at the next
        quantum boundary; charges dispatch overhead plus the body."""
        self.interrupt_count += 1
        total = INTERRUPT_OVERHEAD_NS + int(cost_ns)
        if total <= 0:
            return
        yield self._resource.acquire(priority=True)
        yield total
        self.busy_ns += total
        self._resource.release()

    def stall(self, duration_ns: int):
        """Seize the CPU exclusively for ``duration_ns`` (generator).

        Fault-injection hook (``repro.faults``): models a wedged or
        crashed CAB processor.  The stall jumps the wait queue like an
        interrupt, then holds the CPU so neither threads nor further
        interrupts make progress until it lifts — input queues back up
        and the peers' recovery timers fire, §4.2.1/§6.2.2 style.
        """
        duration = int(duration_ns)
        if duration <= 0:
            return
        yield self._resource.acquire(priority=True)
        yield duration
        self.busy_ns += duration
        self._resource.release()

    def utilization(self) -> float:
        if self.sim.now <= 0:
            return 0.0
        return min(self.busy_ns / self.sim.now, 1.0)


class CabBoard:
    """One CAB: the interface between a node and the Nectar-net."""

    def __init__(self, sim: Simulator, name: str, cfg: CabConfig,
                 fiber_cfg: Optional[FiberConfig] = None) -> None:
        self.sim = sim
        self.name = name
        self.cfg = cfg
        self.fiber_cfg = fiber_cfg or FiberConfig()
        self.cpu = CabCpu(sim, f"{name}.cpu")
        self.memory_pool = BandwidthPool(sim, MEMORY_BYTES_PER_NS,
                                         name=f"{name}.membw")
        self.data_memory = MemoryRegion(sim, f"{name}.data",
                                        DATA_MEMORY_BYTES,
                                        self.memory_pool, dma_capable=True)
        self.program_memory = MemoryRegion(sim, f"{name}.prog",
                                           PROGRAM_MEMORY_BYTES,
                                           self.memory_pool,
                                           dma_capable=False)
        self.protection = ProtectionUnit(
            DATA_MEMORY_BYTES + PROGRAM_MEMORY_BYTES)
        self.dma = DmaController(self)
        self.checksum = ChecksumUnit(cfg)
        self.timers = HardwareTimers(sim)
        self.vme = VmeBus(sim, f"{name}.vme")
        # --- fiber interface (same circuit as a HUB I/O port, §5.2) ---
        self.out_fiber: Optional["Fiber"] = None
        self.hub_port: Optional["HubPort"] = None
        self.first_hop_ready = True
        self.ready_changed = Broadcast(sim)
        # --- software hooks ---
        self._rx_handler: Optional[Callable[..., Any]] = None
        self._rx_backlog: list[tuple[Packet, int, int, int]] = []
        self._reply_waiters: dict[int, Event] = {}
        self._reply_seqs = count(1)
        self.counters: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def register_metrics(self, sampler) -> None:
        """Register the board's devices with the observability layer.

        Covers the outgoing fiber, the four DMA channels, the VME bus,
        and the CPU's cumulative busy time (sampled, so the delta per
        interval is the CPU's utilization series).
        """
        self.dma.register_metrics(sampler)
        self.vme.register_metrics(sampler)
        if self.out_fiber is not None:
            self.out_fiber.register_metrics(sampler,
                                            prefix=f"{self.name}.fiber")
        sampler.add_utilization_probe(
            f"{self.name}.cpu.util", lambda: self.cpu.busy_ns, 1.0,
            description="CAB CPU busy fraction")

    # ------------------------------------------------------------------
    # fiber endpoint protocol (called by the attached hub port's fiber)
    # ------------------------------------------------------------------

    def deliver(self, item: Union[Packet, Reply], wire_size: int) -> None:
        """Head of ``item`` arrived at the CAB's fiber input queue."""
        if isinstance(item, Reply):
            self._deliver_reply(item)
            return
        head_time = self.sim.now
        tail_time = head_time + self._tail_delay(wire_size)
        self.counters["packets_received"] += 1
        if self._rx_handler is None:
            self._rx_backlog.append((item, wire_size, head_time, tail_time))
            return
        self._dispatch_rx(item, wire_size, head_time, tail_time)

    def _tail_delay(self, wire_size: int) -> int:
        return units.transfer_time(wire_size, FIBER_BYTES_PER_NS)

    def notify_ready(self) -> None:
        """The hub's input queue (our first hop) drained."""
        self.first_hop_ready = True
        self.ready_changed.fire()

    def signal_input_drained(self) -> None:
        """Our input queue drained: raise the hub port's ready bit.

        Called by the datalink once the inbound DMA has emptied the queue
        (or the packet was dropped)."""
        if self.hub_port is not None:
            self.sim.call_in(self.fiber_cfg.propagation_ns,
                             self.hub_port.notify_ready)

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------

    def transmit(self, packet: Packet) -> Event:
        """Queue a packet on the outgoing fiber.

        Returns the fiber's completion event (tail has left the board).
        Payload packets clear the first-hop ready flag — the start of
        packet at our output register (§4.2.3).
        """
        if self.out_fiber is None:
            raise RuntimeError(f"{self.name} is not wired to a HUB")
        if packet.has_payload:
            self.first_hop_ready = False
        self.counters["packets_sent"] += 1
        return self.out_fiber.send(packet)

    # ------------------------------------------------------------------
    # receive path plumbing
    # ------------------------------------------------------------------

    def on_receive(self, handler: Callable[..., Any]) -> None:
        """Register the datalink's receive-interrupt handler.

        ``handler(packet, wire_size, head_time, tail_time)`` must return a
        generator; it is spawned as an interrupt-context process.  Packets
        that arrived before registration are replayed.
        """
        self._rx_handler = handler
        backlog, self._rx_backlog = self._rx_backlog, []
        for packet, size, head, tail in backlog:
            self._dispatch_rx(packet, size, head, tail)

    def _dispatch_rx(self, packet: Packet, wire_size: int,
                     head_time: int, tail_time: int) -> None:
        self.sim.process(
            self._rx_handler(packet, wire_size, head_time, tail_time),
            name=f"{self.name}.rx")

    # ------------------------------------------------------------------
    # reply plumbing (datalink waits on command replies)
    # ------------------------------------------------------------------

    def expect_reply(self, command: HubCommand) -> Event:
        """Event that fires with the :class:`Reply` to ``command``.

        Stamps ``command.seq`` from this board's own count, so a reply is
        matched to the command it answers whatever else the interpreter
        has built.
        """
        if command.seq in self._reply_waiters:
            raise RuntimeError(
                f"{self.name}: reply to {command!r} already expected")
        command.seq = seq = next(self._reply_seqs)
        event = self.sim.event()
        self._reply_waiters[seq] = event
        return event

    def cancel_reply(self, command: HubCommand) -> None:
        self._reply_waiters.pop(command.seq, None)

    def _deliver_reply(self, reply: Reply) -> None:
        waiter = self._reply_waiters.pop(reply.seq, None)
        if waiter is None:
            self.counters["stray_replies"] += 1
            return
        self.counters["replies_received"] += 1
        waiter.succeed(reply)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CabBoard {self.name}>"
