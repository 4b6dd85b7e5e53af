"""HUB I/O ports (§4.1, Figure 5).

Functionally a port is an input queue plus an output register.  The port
extracts commands from the incoming byte stream (forwarding
serialisation-requiring ones to the central controller and executing
"localized" ones itself), forwards the remaining bytes through whatever
crossbar connections exist, and maintains the ready bit used for
inter-HUB packet-switched flow control (§4.2.3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace as dc_replace
from typing import TYPE_CHECKING, Any, Optional, Union

from ..config import FIBER_NS_PER_BYTE, PORT_COMMAND_CYCLES
from ..sim.resources import _IDLE
from .frames import Packet, Reply
from .hub_commands import CommandOp

__all__ = ["HubPort"]

if TYPE_CHECKING:  # pragma: no cover
    from .fiber import Fiber
    from .hub import Hub


class HubPort:
    """One of the HUB's I/O ports.

    Idle (``_busy`` false) or busy handling the packet at the head of its
    input queue.  An idle port holds no process and no queue: a packet
    reaching it starts one handler process (:meth:`_drain`), packets
    arriving meanwhile wait in ``_queue``, and the handler returns once
    that queue is empty.
    """

    def __init__(self, hub: "Hub", index: int) -> None:
        self.hub = hub
        self.index = index
        self.sim = hub.sim
        #: Fiber this port transmits on (toward its peer).  Set at wiring.
        self.out_fiber: Optional["Fiber"] = None
        #: The device at the far end (a HubPort or a CAB-like endpoint).
        self.peer: Optional[Any] = None
        # The ready bit and queue depths live in the hub's per-port
        # arrays (``hub.ready_bits``/``hub.queue_depths``/
        # ``hub.max_queue_depths``) so per-hop updates are index stores.
        self.enabled = True
        self.loopback = False
        #: Packets waiting behind the one being handled, as
        #: ``(packet, wire_size, head_time)``; the shared empty tuple until
        #: the first packet has to wait.
        self._queue: deque[tuple[Packet, int, int]] | tuple[()] = _IDLE
        self._busy = False

    # ------------------------------------------------------------------
    # fiber endpoint protocol
    # ------------------------------------------------------------------

    def deliver(self, item: Union[Packet, Reply], wire_size: int) -> None:
        """Head of ``item`` has arrived on this port's input fiber."""
        if isinstance(item, Reply):
            # Replies steal cycles on the reverse path; route immediately.
            self.hub.route_reply(item)
            return
        if not self.enabled:
            self.hub.count("drops_disabled_port")
            # The packet is consumed right here, so the drained signal
            # must still travel upstream: the sender cleared its ready
            # bit on transmission and would otherwise wait on it forever
            # once the port re-enables (§4.2.3).
            if not self._queue:
                self._signal_upstream_drained()
            return
        hub = self.hub
        index = self.index
        if not self._busy:
            # Starting the handler is this packet's one agenda entry: it
            # runs at the end of the current cohort.
            self._busy = True
            hub.queue_depths[index] = 0
            self.sim.process(self._drain(item, wire_size, self.sim.now),
                             name=f"{hub.name}.p{index}")
            return
        queue = self._queue
        if queue is _IDLE:
            queue = self._queue = deque()
        queue.append((item, wire_size, self.sim.now))
        depth = len(queue)
        hub.queue_depths[index] = depth
        if depth > hub.max_queue_depths[index]:
            hub.max_queue_depths[index] = depth

    def notify_ready(self) -> None:
        """Downstream input queue drained: raise the ready bit."""
        self.hub.ready_bits[self.index] = True
        # Test-opens queued in the controller may now proceed (§4.2.3).
        self.hub.notify_ready_changed(self.index)

    # ------------------------------------------------------------------
    # input processing
    # ------------------------------------------------------------------

    def _drain(self, packet: Packet, size: int, head_time: int):
        """One busy period: handle ``packet``, then every queued one."""
        queue_depths = self.hub.queue_depths
        index = self.index
        while True:
            yield from self._handle(packet, size, head_time)
            queue = self._queue
            if not queue:
                break
            # One entry per queued packet, so its handling keeps its place
            # at the end of the cohort: running it inline would reorder
            # same-nanosecond ties (docs/PERFORMANCE.md).
            packet, size, head_time = \
                yield self.sim.event().succeed(queue.popleft())
            queue_depths[index] = len(queue)
        # The last packet has fully left this input queue: signal
        # upstream (the signal travels the reverse fiber, §4.2.3).  The
        # finished handler is unobserved, so it adds no entry.
        self._signal_upstream_drained()
        self._busy = False

    def _signal_upstream_drained(self) -> None:
        peer = self.peer
        if peer is None:
            return
        delay = self.hub.fiber_cfg.propagation_ns
        # A partition-boundary stub (repro.scaleout) captures the ready
        # signal at commit time so it can cross process boundaries with
        # its arrival timestamp intact; this is the tightest cross-link
        # interaction, so its delay *is* the conservative lookahead.
        schedule = getattr(peer, "schedule_notify_ready", None)
        if schedule is not None:
            schedule(delay)
            return
        self.sim.call_in(delay, peer.notify_ready)

    def _handle(self, packet: Packet, size: int, head_time: int):
        hub = self.hub
        cfg = hub.cfg
        if packet.framing_error:
            # Damaged on the way in: discard after it drains the queue.
            hub.count("framing_errors")
            return
        if self.loopback:
            # Supervisor loopback: echo the packet back out our own fiber.
            yield cfg.transfer_ns
            yield self.out_fiber.send(packet)
            hub.count("loopback_packets")
            return
        packet.record_hop(hub, self.index)
        closing = False
        first = True
        while packet.commands:
            command = packet.commands[0]
            if command.hub_id not in (hub.name, "*"):
                break
            if command.op is CommandOp.CLOSE_ALL:
                # A travelling close: forward it, then tear down behind it.
                closing = True
                break
            packet.commands.pop(0)
            if not first:
                # Later commands are still streaming in at fiber rate
                # (collective commands carry extension bytes).
                yield round(command.wire_bytes() * FIBER_NS_PER_BYTE)
            first = False
            yield PORT_COMMAND_CYCLES * cfg.cycle_ns
            result = yield from hub.execute_command(
                command, in_port=self.index,
                reverse_path=list(packet.reverse_path))
            if command.op.is_open and not result.get("ok", False):
                hub.count("opens_abandoned")
        outputs = sorted(hub.crossbar.outputs_of(self.index))
        has_remainder = bool(packet.commands) or packet.has_payload \
            or packet.close_after or closing
        if not has_remainder:
            return
        if not outputs:
            if closing:
                # Nothing further to close here; consume the command.
                hub.count("close_all_terminated")
            else:
                hub.count("stray_packets")
            return
        # Cut-through forwarding: 5 cycles from input queue to output
        # register (§4), then the output fiber serialises the bytes.
        yield cfg.transfer_ns
        done_events = []
        for out_index in outputs:
            clone = self._clone_for(packet, len(outputs) > 1)
            done_events.append(self.sim.process(
                self._transmit(out_index, clone, closing),
                name=f"{hub.name}.p{self.index}->p{out_index}"))
        # A unicast packet waits on its one branch directly: the AllOf
        # only multicast needs would be one more agenda entry per hop.
        yield done_events[0] if len(done_events) == 1 \
            else self.sim.all_of(done_events)
        if closing:
            freed = hub.crossbar.disconnect_input(self.index)
            for out_index in freed:
                hub.notify_output_freed(out_index)
            hub.count("close_all_executed")

    def _clone_for(self, packet: Packet, multicast: bool) -> Packet:
        """Copy a packet for one multicast branch.

        The byte stream sent down every branch is identical; cloning only
        exists so each branch keeps its own command cursor, reverse path
        and corruption flag.  ``dc_replace`` copies the seal with the
        other init fields.
        """
        if not multicast:
            return packet
        payload = None
        if packet.payload is not None:
            payload = dc_replace(packet.payload)
        clone = Packet(
            origin=packet.origin,
            commands=[dc_replace(c) for c in packet.commands],
            payload=payload,
            close_after=packet.close_after,
            header_bytes=packet.header_bytes,
        )
        clone.reverse_path = list(packet.reverse_path)
        return clone

    def _transmit(self, out_index: int, packet: Packet, closing: bool):
        hub = self.hub
        out_port = hub.ports[out_index]
        if packet.has_payload:
            # Start of packet at the output register clears the ready bit
            # (§4.2.3); it rises again when the downstream queue drains.
            hub.ready_bits[out_index] = False
        yield out_port.out_fiber.send(packet)
        hub.count("packets_forwarded")
        if packet.close_after or closing:
            hub.close_output(out_index)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def register_metrics(self, sampler) -> None:
        """Expose this port to the observability layer (§4.1).

        Sampled per port: input-queue depth, ready-bit occupancy, and —
        when the port is wired — output-fiber utilization (busy fraction
        derived from bytes serialised per sampling interval).
        """
        base = f"{self.hub.name}.p{self.index}"
        hub = self.hub
        index = self.index
        sampler.add_probe(
            f"{base}.queue_depth", lambda: float(len(self._queue)),
            description="packets waiting in the port input queue",
            unit="packets")
        sampler.add_probe(
            f"{base}.ready",
            lambda: 1.0 if hub.ready_bits[index] else 0.0,
            description="ready bit (inter-HUB flow control, §4.2.3)")
        if self.out_fiber is not None:
            fiber = self.out_fiber
            sampler.add_utilization_probe(
                f"{base}.util", lambda: fiber.bytes_sent,
                FIBER_NS_PER_BYTE,
                description="output fiber busy fraction")
            if isinstance(self.peer, HubPort):
                # Inter-HUB links get the full fiber family too — they
                # are the shared resource meshes saturate on first.
                fiber.register_metrics(sampler)

    # ------------------------------------------------------------------
    # supervisor operations
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Supervisor port reset: flush the queue, raise the ready bit."""
        if self._queue:
            self._queue.clear()
        hub = self.hub
        hub.queue_depths[self.index] = 0
        hub.ready_bits[self.index] = True

    def status(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "enabled": self.enabled,
            "loopback": self.loopback,
            "ready": self.hub.ready_bits[self.index],
            "queued": len(self._queue),
            "owner": self.hub.crossbar.owner_of(self.index),
            "feeds": sorted(self.hub.crossbar.outputs_of(self.index)),
        }
