"""The CAB datalink layer (§6.2.1, §4.2).

Transfers data packets between CABs using HUB commands, manages HUB
connections, and recovers from lost commands and framing errors.  The
frequent simple case — a packet to a node in the same HUB cluster — is a
single HUB command prepended to the data; complicated, less frequent
operations (multi-hop circuits, multicast, error recovery) are composed
in software, exactly as §6.2.1 prescribes.

Send modes:

* ``packet`` — packet switching with ``test open with retry`` flow
  control at every hop (§4.2.3); payload must fit the 1 KB input queue.
* ``circuit`` — a command packet opens the whole route, the CAB waits for
  the reply, then streams the data packet and a travelling ``close all``
  (§4.2.1); required for payloads larger than the input queue.
* ``auto`` — packet switching when the packet fits, else circuit.
"""

from __future__ import annotations

import dataclasses
import random
from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Optional

from ..config import (INPUT_QUEUE_BYTES, MAX_ROUTE_ATTEMPTS,
                      RECEIVE_OVERHEAD_NS, REPLY_TIMEOUT_NS, RETRY_BACKOFF_NS,
                      SEND_OVERHEAD_NS, TRANSPORT_HEADER_BYTES, WAKEUP_NS,
                      NectarConfig)
from ..errors import CollectiveError, DatalinkError
from ..hardware.frames import (COMMAND_BYTES, FRAMING_BYTES, HubCommand,
                               Packet, Payload)
from ..hardware.hub_commands import CommandOp
from ..sim import Resource
from .routing import Route, Router, TreeEdge

__all__ = ["Datalink"]

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.cab import CabBoard
    from ..kernel.threads import CabKernel


def _deadline(timeout_ns: Optional[int], default_ns: int) -> int:
    """A replied exchange's deadline: ``default_ns`` when none is given;
    an explicit value must be positive (0 is not "use the default")."""
    if timeout_ns is None:
        return default_ns
    if timeout_ns <= 0:
        raise DatalinkError(f"reply timeout must be positive, "
                            f"got {timeout_ns}")
    return timeout_ns


class Datalink:
    """Per-CAB datalink engine."""

    def __init__(self, cab: "CabBoard", kernel: "CabKernel", router: Router,
                 cfg: NectarConfig) -> None:
        self.cab = cab
        self.kernel = kernel
        self.router = router
        self.cfg = cfg
        self.sim = cab.sim
        self._rng: Optional[random.Random] = None
        #: Transport hook: ``classify(packet) -> Optional[deliver]`` where
        #: ``deliver(packet)`` runs after the inbound DMA completes.  The
        #: classification is the transport upcall of §6.2.1.
        self.classify: Optional[Callable[[Packet],
                                         Optional[Callable[[Packet], None]]]] \
            = None
        self.counters: dict[str, int] = defaultdict(int)
        #: Serialises sends from this CAB's input port.  Concurrent
        #: threads must not interleave while a circuit is held open:
        #: further opens from the same input port would create crossbar
        #: fan-out and the travelling closes would tear each other's
        #: connections down.  FIFO-only, yet its holders still ``yield``
        #: the uncontended grant instead of ``try_acquire()``: with the
        #: fiber-out DMA grant also elided the send DMA's ``open_stream``
        #: overtook a same-nanosecond drain transfer and moved one
        #: latency (docs/PERFORMANCE.md, "Rejected variants").
        self._port_lock = Resource(cab.sim, capacity=1)
        cab.on_receive(self._receive_interrupt)

    @property
    def rng(self) -> random.Random:
        """This CAB's retry-backoff jitter stream (``dl:<cab>``), seeded
        at the first draw: only a refused circuit ever draws from it."""
        rng = self._rng
        if rng is None:
            rng = self._rng = self.cfg.rng_stream(f"dl:{self.cab.name}")
        return rng

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    #: Datalink counters exported as sampled time series: the error/
    #: recovery signals (timeouts, retries, overflows) plus traffic
    #: volume in both switching modes.
    OBSERVED_COUNTERS = ("packets_sent_packet_mode",
                         "packets_sent_circuit_mode", "packets_received",
                         "reply_timeouts", "circuit_retries",
                         "input_queue_overflows", "framing_errors",
                         "link_probes_sent", "link_probe_timeouts")

    def register_metrics(self, sampler) -> None:
        """Register this CAB's datalink counters with the observer."""
        base = self.cab.name
        for key in self.OBSERVED_COUNTERS:
            sampler.add_probe(
                f"{base}.dl.{key}",
                lambda key=key: float(self.counters.get(key, 0)),
                description=f"cumulative datalink counter {key!r}",
                unit="events")

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _max_packet_payload(self) -> int:
        """Largest payload a packet-switched packet may carry."""
        overhead = FRAMING_BYTES + TRANSPORT_HEADER_BYTES
        return INPUT_QUEUE_BYTES - overhead - 8 * COMMAND_BYTES

    def packet_fits(self, payload_size: int) -> bool:
        return payload_size <= self._max_packet_payload()

    def _packet(self, commands: list[HubCommand],
                payload: Optional[Payload], close_after: bool) -> Packet:
        return Packet(self.cab.name, commands=commands, payload=payload,
                      close_after=close_after,
                      header_bytes=TRANSPORT_HEADER_BYTES
                      if payload is not None else 0)

    def _command(self, op: CommandOp, hub_name: str, param: int) -> HubCommand:
        return HubCommand(op, hub_name, param, origin=self.cab.name)

    # ------------------------------------------------------------------
    # send paths (thread context; all generators)
    # ------------------------------------------------------------------

    def send(self, dst_cab: str, payload: Payload, mode: str = "auto"):
        """Send one payload to ``dst_cab``; returns when the tail has left
        this CAB (delivery is asynchronous at the receiver)."""
        route = self.router.route(self.cab.name, dst_cab)
        yield from self.send_on_route(route, payload, mode)

    def send_on_route(self, route: Route, payload: Payload,
                      mode: str = "auto"):
        if mode not in ("auto", "packet", "circuit"):
            raise DatalinkError(f"unknown send mode {mode!r}")
        if mode == "auto":
            mode = "packet" if self.packet_fits(payload.size) else "circuit"
        if mode == "packet" and not self.packet_fits(payload.size):
            raise DatalinkError(
                f"payload of {payload.size} B exceeds the HUB input queue; "
                f"use circuit switching (§4.2.3)")
        yield from self.kernel.compute(SEND_OVERHEAD_NS)
        checksum_cost = self.cab.checksum.cost_ns(payload.size)
        if checksum_cost:
            yield from self.kernel.compute(checksum_cost)
        grant = self._port_lock.acquire()
        yield grant
        try:
            if mode == "packet":
                yield from self._send_packet_switched(route, payload)
            else:
                yield from self._send_circuit(route, payload)
        finally:
            self._port_lock.release()

    def _send_packet_switched(self, route: Route, payload: Payload):
        """One packet: test-opens, data, travelling close (§4.2.3)."""
        commands = [self._command(CommandOp.TEST_OPEN_RETRY,
                                  hop.hub.name, hop.out_port)
                    for hop in route.hops]
        packet = self._packet(commands, payload, close_after=True)
        yield from self._await_first_hop_ready()
        self.counters["packets_sent_packet_mode"] += 1
        yield from self.cab.dma.send_packet(packet)

    def _await_first_hop_ready(self):
        """Our own HUB input queue must be ready for a new packet."""
        while not self.cab.first_hop_ready:
            yield self.cab.ready_changed.wait()

    def _send_circuit(self, route: Route, payload: Payload):
        """Open the route, await the reply, stream data, close (§4.2.1)."""
        yield from self.open_circuit(route)
        data = self._packet([], payload, close_after=True)
        self.counters["packets_sent_circuit_mode"] += 1
        yield from self.cab.dma.send_packet(data)

    def open_circuit(self, route: Route):
        """Establish a circuit along ``route`` with full error recovery.

        Retries with jittered backoff after reply timeouts, tearing down
        partial connections with ``close all`` in between (§4.2.1).
        """
        attempts = 0
        while True:
            attempts += 1
            commands = [self._command(CommandOp.OPEN_RETRY,
                                      hop.hub.name, hop.out_port)
                        for hop in route.hops[:-1]]
            last = route.hops[-1]
            final = self._command(CommandOp.OPEN_RETRY_REPLY,
                                  last.hub.name, last.out_port)
            commands.append(final)
            outcome = yield from self._request(commands, REPLY_TIMEOUT_NS)
            if outcome is not None and outcome.ok:
                self.counters["circuits_opened"] += 1
                return
            self.counters["circuit_retries"] += 1
            if attempts >= MAX_ROUTE_ATTEMPTS:
                raise DatalinkError(
                    f"{self.cab.name}: circuit to {route.dst} failed after "
                    f"{attempts} attempts")
            yield from self.close_route()
            backoff = RETRY_BACKOFF_NS * attempts
            jitter = self.rng.randrange(RETRY_BACKOFF_NS)
            yield from self.kernel.sleep(backoff + jitter)

    def _request(self, commands: list[HubCommand], timeout_ns: int):
        """Send ``commands`` as one command packet and wait, under a
        hardware-timer deadline, for the reply to the last of them.

        Returns the :class:`Reply`, or ``None`` on timeout, when the
        expectation is cancelled so a late reply counts as a stray.
        """
        reply_event = self.cab.expect_reply(commands[-1])
        yield from self.cab.dma.send_packet(
            self._packet(commands, None, close_after=False))
        deadline = self.sim.timeout(timeout_ns)
        result = yield self.sim.any_of([reply_event, deadline])
        yield from self.kernel.compute(WAKEUP_NS)
        if reply_event in result:
            return result[reply_event]
        self.cab.cancel_reply(commands[-1])
        self.counters["reply_timeouts"] += 1
        return None

    def close_route(self):
        """Send a travelling ``close all`` to tear down our connections."""
        packet = self._packet([HubCommand(CommandOp.CLOSE_ALL, "*",
                                          origin=self.cab.name)],
                              None, close_after=False)
        self.counters["close_alls_sent"] += 1
        yield from self.cab.dma.send_packet(packet)

    # ------------------------------------------------------------------
    # multicast (§4.2.2, §4.2.4)
    # ------------------------------------------------------------------

    def multicast(self, dst_cabs: list[str], payload: Payload,
                  mode: str = "auto"):
        """Send one payload to several CABs over a multicast tree.

        Command lists are consumed head-first as the packet passes each
        HUB, and every opened branch receives the *identical* remaining
        byte stream — so one packet can only open a linear chain of HUBs
        with leaf taps (the shape of the paper's Figure 7 example).
        Destinations whose routes branch into sibling HUB subtrees are
        partitioned into prefix-chain groups and sent as one multicast
        packet per group.
        """
        if mode == "auto":
            mode = "packet" if self.packet_fits(payload.size) else "circuit"
        edge_groups = [self.router.multicast_edges(self.cab.name, group)
                       for group in self._chain_groups(dst_cabs)]
        yield from self.kernel.compute(SEND_OVERHEAD_NS)
        checksum_cost = self.cab.checksum.cost_ns(payload.size)
        if checksum_cost:
            yield from self.kernel.compute(checksum_cost)
        grant = self._port_lock.acquire()
        yield grant
        try:
            for index, edges in enumerate(edge_groups):
                body = payload if index == 0 else dataclasses.replace(payload)
                if mode == "packet":
                    yield from self._multicast_packet(edges, body)
                else:
                    yield from self._multicast_circuit(edges, body)
        finally:
            self._port_lock.release()

    def _chain_groups(self, dst_cabs: list[str]) -> list[list[str]]:
        """Partition destinations into groups with linear HUB chains.

        Lexicographically sorted hub paths put prefix-related chains
        next to each other; a group grows while each new path extends
        the group's longest chain, and breaks at the first divergence.
        Destinations on a single shared HUB (the common case) and the
        Figure 7 shape stay a single group, preserving one-packet
        multicast for them.
        """
        src_hub = self.cab.hub_port.hub
        keyed = []
        for dst in dst_cabs:
            dst_hub, _port = self.router.cab_location(dst)
            keyed.append((tuple(self.router.hub_path(src_hub.name,
                                                     dst_hub.name)), dst))
        keyed.sort(key=lambda item: item[0])
        groups: list[list[str]] = []
        longest: Optional[tuple] = None
        for chain, dst in keyed:
            if longest is not None and chain[:len(longest)] == longest:
                groups[-1].append(dst)
            else:
                groups.append([dst])
            longest = chain
        return groups

    def _multicast_packet(self, edges: list[TreeEdge], payload: Payload):
        commands = [self._command(CommandOp.TEST_OPEN_RETRY,
                                  edge.hub.name, edge.out_port)
                    for edge in edges]
        packet = self._packet(commands, payload, close_after=True)
        yield from self._await_first_hop_ready()
        self.counters["multicasts_packet_mode"] += 1
        yield from self.cab.dma.send_packet(packet)

    def _multicast_circuit(self, edges: list[TreeEdge], payload: Payload):
        commands = []
        leaf_commands = []
        reply_events = []
        for edge in edges:
            op = CommandOp.OPEN_RETRY_REPLY if edge.is_leaf \
                else CommandOp.OPEN_RETRY
            command = self._command(op, edge.hub.name, edge.out_port)
            commands.append(command)
            if edge.is_leaf:
                leaf_commands.append(command)
                reply_events.append(self.cab.expect_reply(command))
        packet = self._packet(commands, None, close_after=False)
        yield from self.cab.dma.send_packet(packet)
        # "After receiving replies to both of the open with retry and
        # reply commands, CAB2 sends the data packet" (§4.2.2).
        deadline = REPLY_TIMEOUT_NS
        all_replies = self.sim.all_of(reply_events)
        timeout = self.sim.timeout(deadline)
        result = yield self.sim.any_of([all_replies, timeout])
        yield from self.kernel.compute(WAKEUP_NS)
        if all_replies not in result:
            for command in leaf_commands:
                self.cab.cancel_reply(command)
            yield from self.close_route()
            raise DatalinkError(
                f"{self.cab.name}: multicast circuit establishment timed out")
        self.counters["multicasts_circuit_mode"] += 1
        data = self._packet([], payload, close_after=True)
        yield from self.cab.dma.send_packet(data)

    # ------------------------------------------------------------------
    # management-plane helpers (status, supervisor)
    # ------------------------------------------------------------------

    def command_first_hop(self, op: CommandOp, param: int = 0):
        """Send an unreplied management command to our attached HUB
        (resets, enables, ready-bit writes: generator)."""
        hub = self.cab.hub_port.hub
        packet = self._packet([self._command(op, hub.name, param)],
                              None, close_after=False)
        yield from self.cab.dma.send_packet(packet)

    def probe_link(self, hub_a, port_a: int, hub_b, port_b: int,
                   timeout_ns: Optional[int] = None):
        """Probe one specific inter-HUB fiber pair (generator).

        Opens ``hub_a.port_a`` from our input port (``open with retry``)
        and sends an ``ECHO`` addressed to ``hub_b`` through it, so the
        echo crosses exactly the probed forward fiber and its reply
        returns over the reverse fiber — a dead direction on either
        fiber, or a disabled far port, times the probe out.  The caller
        must be attached to ``hub_a``.  Returns the measured round-trip
        time in ns, or ``None`` on timeout.  The partial connection is
        torn down with a travelling ``close all`` either way.
        """
        if self.cab.hub_port is None or self.cab.hub_port.hub is not hub_a:
            raise DatalinkError(
                f"{self.cab.name} cannot probe from {hub_a.name}: "
                f"not attached there")
        timeout_ns = _deadline(timeout_ns, REPLY_TIMEOUT_NS)
        yield from self.kernel.compute(SEND_OVERHEAD_NS)
        grant = self._port_lock.acquire()
        yield grant
        try:
            open_cmd = self._command(CommandOp.OPEN_RETRY, hub_a.name,
                                     port_a)
            echo = self._command(CommandOp.ECHO, hub_b.name, port_b)
            started = self.sim.now
            self.counters["link_probes_sent"] += 1
            reply = yield from self._request([open_cmd, echo], timeout_ns)
            rtt = None
            if reply is not None and reply.ok:
                rtt = self.sim.now - started
            else:
                self.counters["link_probe_timeouts"] += 1
            yield from self.close_route()
            return rtt
        finally:
            self._port_lock.release()

    def query_first_hop(self, op: CommandOp, param: int = 0,
                        timeout_ns: Optional[int] = None):
        """Send a single replied command to our directly attached HUB."""
        timeout_ns = _deadline(timeout_ns, REPLY_TIMEOUT_NS)
        hub = self.cab.hub_port.hub
        reply = yield from self._request(
            [self._command(op, hub.name, param)], timeout_ns)
        if reply is None:
            raise DatalinkError(f"no reply to {op.name} from {hub.name}")
        return reply

    # ------------------------------------------------------------------
    # in-network collectives (repro.collectives)
    # ------------------------------------------------------------------

    def collective_command(self, op: CommandOp, param: int = 0,
                           arg: Optional[dict] = None,
                           timeout_ns: Optional[int] = None,
                           hub_name: Optional[str] = None):
        """Issue one collective command to HUB ``hub_name`` (generator;
        default: our attached HUB).

        Returns the unit's reply.  Unlike :meth:`query_first_hop` the
        reply may arrive much later (a barrier waits for its whole
        group), so the deadline comes from ``cfg.collectives``; on
        timeout this raises :class:`CollectiveError` — a collective
        never hangs.  A remote HUB is reached over a circuit along the
        inter-HUB path (first parallel link at each hop), held so the
        reply can cycle-steal back over the reverse fibers and then torn
        down with a travelling ``close all``: that is how fetch-and-add
        reaches a register homed on another HUB (barrier and reduce
        reach remote HUBs through their reduction tree instead).
        """
        timeout_ns = _deadline(timeout_ns,
                               self.cfg.collectives.reply_timeout_ns)
        local = self.cab.hub_port.hub.name
        hubs = self.router.hub_path(local, hub_name or local)
        remote = len(hubs) > 1
        if remote:
            yield from self.kernel.compute(SEND_OVERHEAD_NS)
            grant = self._port_lock.acquire()
            yield grant
        try:
            commands = [self._command(
                CommandOp.OPEN_RETRY, here,
                self.router.parallel_links(here, there)[0][0])
                for here, there in zip(hubs, hubs[1:])]
            command = self._command(op, hubs[-1], param)
            command.arg = arg
            commands.append(command)
            self.counters["collective_commands_sent"] += 1
            reply = yield from self._request(commands, timeout_ns)
            if remote:
                yield from self.close_route()
        finally:
            if remote:
                self._port_lock.release()
        if reply is None:
            self.counters["collective_reply_timeouts"] += 1
            raise CollectiveError(
                f"{self.cab.name}: no reply to {op.name} "
                f"group/reg {param} from {hubs[-1]}")
        return reply

    # ------------------------------------------------------------------
    # receive path (interrupt context)
    # ------------------------------------------------------------------

    def _receive_interrupt(self, packet: Packet, wire_size: int,
                           head_time: int, tail_time: int):
        """The datalink receive interrupt handler (§6.2.1).

        Invoked by the start-of-packet signal; performs the transport
        upcall, sets up the inbound DMA, and hands the packet to the
        transport once the DMA completes.
        """
        cpu = self.cab.cpu
        yield from cpu.execute_interrupt(RECEIVE_OVERHEAD_NS)
        if packet.framing_error:
            self.counters["framing_errors"] += 1
            self.cab.signal_input_drained()
            return
        if packet.payload is None:
            # Pure command traffic (e.g. a travelling close, or stray
            # multicast commands): nothing for the transport.
            self.counters["command_only_packets"] += 1
            self.cab.signal_input_drained()
            return
        deliver = None
        if self.classify is not None:
            deliver = self.classify(packet)
        if deliver is None:
            self.counters["drops_no_consumer"] += 1
            self.cab.signal_input_drained()
            return
        # The upcall must return before the input queue overflows
        # (§6.2.1): if we are too late starting the DMA, the tail of the
        # packet has been lost.
        if self.sim.now - head_time > self.cfg.datalink.upcall_budget_ns:
            self.counters["input_queue_overflows"] += 1
            self.cab.signal_input_drained()
            return
        yield from self.cab.dma.drain_input(wire_size, tail_time)
        self.cab.signal_input_drained()
        self.counters["packets_received"] += 1
        deliver(packet)
