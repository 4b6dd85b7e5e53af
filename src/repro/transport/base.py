"""Transport-layer core: the per-CAB manager and shared machinery (§6.2.2).

The transport layer moves *messages* between *mailboxes* on different
CABs: fragmentation into ≤1 KB packets, reassembly, flow control and
retransmission live here.  Three protocols are provided, exactly the
paper's set: datagram (unreliable, lowest overhead), byte-stream
(reliable, sliding window) and request-response (client-server RPC).

Receive path: the datalink invokes :meth:`TransportManager.classify` as
its upcall — it must name the destination mailbox before the input queue
overflows — and, after the inbound DMA, hands the packet over; transport
header processing is charged as interrupt-context CPU (§6.2.1).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..config import (MAILBOX_OP_NS, RECEIVE_PACKET_CPU_NS, SEND_PACKET_CPU_NS,
                      TRANSPORT_HEADER_BYTES, NectarConfig)
from ..errors import TransportError
from ..hardware.frames import Packet, Payload
from ..kernel.mailbox import Mailbox, Message
from ..resilience.breaker import CircuitBreaker
from ..resilience.rto import RtoEstimator

__all__ = ["message_size", "slice_data", "TransportManager"]

if TYPE_CHECKING:  # pragma: no cover
    from ..datalink.protocol import Datalink
    from ..kernel.threads import CabKernel
    from ..observe import MetricSampler


def message_size(data: Optional[bytes], size: Optional[int]) -> int:
    """Resolve a message body size from ``data``/``size`` arguments.

    Raises :class:`TransportError` when neither is given — previously
    every send path crashed with ``TypeError: len(None)`` — and when
    both are given but disagree: a short ``size`` would silently
    truncate the message, a long one would crash the sending CAB thread
    in ``Payload`` after the first fragments are already on the wire.
    """
    if data is None:
        if size is None:
            raise TransportError(
                "send needs message data or an explicit size "
                "(both were None)")
        return size
    if size is not None and size != len(data):
        raise TransportError(
            f"message size {size} != len(data) {len(data)}")
    return len(data)


def slice_data(data: Optional[bytes], size: int,
               max_fragment: int) -> list[tuple[int, Optional[bytes]]]:
    """Split a message body into fragment (size, bytes-like) pairs.

    Zero-copy: a message that fits one fragment passes ``data`` through
    unchanged, and larger bodies are sliced as :class:`memoryview` windows
    over the original bytes (reassembly joins them back into ``bytes``).
    """
    if size < 0:
        raise TransportError(f"negative message size {size}")
    if size == 0:
        return [(0, b"" if data is not None else None)]
    if size <= max_fragment:
        return [(size, data)]
    view = memoryview(data) if data is not None else None
    fragments = []
    for offset in range(0, size, max_fragment):
        length = min(max_fragment, size - offset)
        chunk = view[offset:offset + length] if view is not None else None
        fragments.append((length, chunk))
    return fragments


class TransportManager:
    """Owns the mailbox namespace and the three protocols of one CAB."""

    def __init__(self, cab, kernel: "CabKernel", datalink: "Datalink",
                 cfg: NectarConfig) -> None:
        from .bytestream import ByteStreamProtocol
        from .datagram import DatagramProtocol
        from .reqresp import RequestResponseProtocol
        self.cab = cab
        self.kernel = kernel
        self.datalink = datalink
        self.cfg = cfg
        self.sim = cab.sim
        self.mailboxes: dict[str, Mailbox] = {}
        self.counters: dict[str, int] = defaultdict(int)
        # Message ids are per-manager so identical runs in one interpreter
        # produce identical traces (module-global counters leak state).
        self._message_ids = count(1)
        #: The attached observer's sampler, once one is attached.
        self._sampler: Optional["MetricSampler"] = None
        self.datagram = DatagramProtocol(self)
        self.stream = ByteStreamProtocol(self)
        self.rpc = RequestResponseProtocol(self)
        self._protocols = {
            proto: handler
            for handler in (self.datagram, self.stream, self.rpc)
            for proto in handler.protos
        }
        #: Per-peer adaptive RTO state (Jacobson/Karn), shared by the
        #: byte-stream and request-response protocols.
        self._rto: dict[str, RtoEstimator] = {}
        #: Per-peer circuit breakers gating the reliable protocols.
        self._breakers: dict[str, CircuitBreaker] = {}
        self._peer_probes: set[tuple[str, str]] = set()
        datalink.classify = self.classify

    def next_message_id(self) -> int:
        """Allocate the next message id on this CAB's transport."""
        return next(self._message_ids)

    def register_protocol(self, handler) -> None:
        """Install an additional protocol handler.

        ``handler`` needs ``protos`` (wire tags), ``accept(header)`` and
        ``handle(packet)`` (a generator).  Used by the network-driver
        interface and the Internet-protocol suite (§6.2.2's planned
        IP/TCP/VMTP experiments).
        """
        for proto in handler.protos:
            if proto in self._protocols:
                raise TransportError(
                    f"{self.cab.name}: protocol {proto!r} already bound")
            self._protocols[proto] = handler

    # ------------------------------------------------------------------
    # mailboxes
    # ------------------------------------------------------------------

    def create_mailbox(self, name: str,
                       capacity: Optional[int] = None) -> Mailbox:
        if name in self.mailboxes:
            raise TransportError(f"{self.cab.name}: mailbox {name!r} exists")
        mailbox = Mailbox(self.kernel, name, capacity_messages=capacity)
        self.mailboxes[name] = mailbox
        if self._sampler is not None:
            mailbox.register_metrics(self._sampler)
        return mailbox

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    #: Transport counters exported as sampled time series.
    OBSERVED_COUNTERS = ("messages_delivered", "fragments_sent",
                         "drops_mailbox_full", "drops_no_mailbox",
                         "checksum_drops")

    def register_metrics(self, sampler) -> None:
        """Register this CAB's transport layer with the observer.

        Sampled: aggregate mailbox depth (the §6.1 kernel's buffering
        pressure), cumulative delivery/drop counters, and the combined
        retransmission count of the reliable protocols.  Mailboxes
        created after attachment self-register through
        :meth:`create_mailbox`.
        """
        base = self.cab.name
        self._sampler = sampler
        sampler.add_probe(
            f"{base}.mailbox_depth",
            lambda: float(sum(len(m) for m in self.mailboxes.values())),
            description="messages queued across the CAB's mailboxes",
            unit="messages")
        for key in self.OBSERVED_COUNTERS:
            sampler.add_probe(
                f"{base}.tp.{key}",
                lambda key=key: float(self.counters.get(key, 0)),
                description=f"cumulative transport counter {key!r}",
                unit="events")
        sampler.add_probe(
            f"{base}.tp.retransmits",
            lambda: float(self.stream.retransmitted + self.rpc.retransmits),
            description="byte-stream + RPC retransmissions", unit="packets")
        sampler.add_probe(
            f"{base}.tp.reassembly_expired",
            lambda: float(self.datagram.reassembly.expired
                          + self.rpc.reassembly.expired),
            description="incomplete reassemblies garbage-collected",
            unit="messages")
        sampler.add_probe(
            f"{base}.tp.breaker_fast_fails",
            lambda: float(self.counters.get("breaker_fast_fails", 0)),
            description="reliable sends failed fast by open breakers",
            unit="events")
        for mailbox in self.mailboxes.values():
            mailbox.register_metrics(sampler)
        for peer in sorted(set(self._rto) | set(self._breakers)):
            self._register_peer_probes(peer)

    def _register_peer_probes(self, peer: str) -> None:
        """Per-peer SRTT / breaker-state gauges (lazy: peers appear as
        traffic does; re-invocations skip what is already registered)."""
        sampler = self._sampler
        if sampler is None:
            return
        base = self.cab.name
        estimator = self._rto.get(peer)
        if estimator is not None \
                and ("rto", peer) not in self._peer_probes:
            self._peer_probes.add(("rto", peer))
            sampler.add_probe(
                f"{base}.tp.srtt_us.{peer}",
                lambda e=estimator: 0.0 if e.srtt is None
                else e.srtt / 1000.0,
                description=f"smoothed RTT to {peer}", unit="us")
        breaker = self._breakers.get(peer)
        if breaker is not None \
                and ("breaker", peer) not in self._peer_probes:
            self._peer_probes.add(("breaker", peer))
            sampler.add_probe(
                f"{base}.tp.breaker.{peer}",
                breaker.state_value,
                description=f"circuit-breaker state toward {peer} "
                            f"(0 closed, 1 half-open, 2 open)",
                unit="state")

    # ------------------------------------------------------------------
    # adaptive reliability (per-peer RTO estimation, circuit breakers)
    # ------------------------------------------------------------------

    def rto_for(self, peer: str) -> RtoEstimator:
        """The shared Jacobson/Karn RTO estimator toward ``peer``."""
        estimator = self._rto.get(peer)
        if estimator is None:
            estimator = RtoEstimator(
                self.cfg.transport,
                self.cfg.rng_stream(f"rto:{self.cab.name}->{peer}"))
            self._rto[peer] = estimator
            self._register_peer_probes(peer)
        return estimator

    def breaker_for(self, peer: str) -> CircuitBreaker:
        """The circuit breaker gating reliable sends toward ``peer``."""
        breaker = self._breakers.get(peer)
        if breaker is None:
            breaker = CircuitBreaker(peer, self.cfg.resilience,
                                     clock=lambda: self.sim.now)
            self._breakers[peer] = breaker
            self._register_peer_probes(peer)
        return breaker

    def check_peer(self, peer: str) -> None:
        """Fail fast when ``peer``'s breaker is open.

        Reliable protocols call this before spending their retry budget;
        datagrams (and the resilience heartbeats riding them) never do.
        """
        if peer == self.cab.name:
            return
        if not self.breaker_for(peer).allow():
            self.counters["breaker_fast_fails"] += 1
            raise TransportError(
                f"{self.cab.name}: peer {peer} circuit breaker is open "
                f"(peer confirmed dead or repeatedly unresponsive)")

    def peer_success(self, peer: str) -> None:
        """Record a completed reliable exchange with ``peer``."""
        if peer != self.cab.name:
            self.breaker_for(peer).record_success()

    def peer_failure(self, peer: str) -> None:
        """Record an exhausted retry budget toward ``peer``."""
        if peer != self.cab.name:
            self.breaker_for(peer).record_failure()

    def mailbox(self, name: str) -> Mailbox:
        try:
            return self.mailboxes[name]
        except KeyError:
            raise TransportError(
                f"{self.cab.name}: no mailbox {name!r}") from None

    def has_mailbox(self, name: str) -> bool:
        return name in self.mailboxes

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def classify(self, packet: Packet) -> Optional[Callable[[Packet], None]]:
        """The transport upcall: map a packet to a consumer, or reject.

        Runs synchronously in the datalink receive interrupt; must be
        cheap (its CPU cost is folded into the datalink's handler charge).
        """
        header = packet.payload.header
        proto = header.get("proto")
        handler = self._protocols.get(proto)
        if handler is None:
            self.counters["unknown_proto"] += 1
            return None
        if not handler.accept(header):
            self.counters["refused_packets"] += 1
            return None
        return self._on_packet

    def _on_packet(self, packet: Packet) -> None:
        """Post-DMA continuation: spawn the header-processing handler."""
        self.sim.process(self._handle_packet(packet),
                         name=f"{self.cab.name}.tp")

    def _handle_packet(self, packet: Packet):
        # Still the same interrupt context the datalink dispatched from, so
        # no second interrupt-overhead charge (§6.2.1).
        yield from self.cab.cpu.execute(RECEIVE_PACKET_CPU_NS)
        payload = packet.payload
        checksum_cost = self.cab.checksum.cost_ns(payload.size)
        if checksum_cost:
            yield from self.cab.cpu.execute(checksum_cost)
        if payload.corrupt:
            self.counters["checksum_drops"] += 1
            return
        handler = self._protocols[payload.header["proto"]]
        yield from handler.handle(packet)

    # ------------------------------------------------------------------
    # shared send machinery
    # ------------------------------------------------------------------

    def transmit_payload(self, dst_cab: str, payload: Payload,
                         mode: str = "auto"):
        """Move one payload toward ``dst_cab`` (generator).

        Tasks co-resident on this CAB exchange messages through CAB
        memory directly — a mailbox operation, no network traffic.
        Everything else goes through the datalink.
        """
        if dst_cab == self.cab.name:
            yield from self.kernel.compute(MAILBOX_OP_NS)
            packet = Packet(self.cab.name, payload=payload,
                            header_bytes=TRANSPORT_HEADER_BYTES)
            self.counters["local_deliveries"] += 1
            self._on_packet(packet)
            return
        yield from self.datalink.send(dst_cab, payload, mode=mode)

    def send_fragments(self, dst_cab: str, base_header: dict[str, Any],
                       data: Optional[bytes], size: int,
                       mode: str = "auto",
                       extra_cpu_ns: int = 0):
        """Fragment and transmit one message (generator, thread context).

        ``base_header`` is copied into every fragment with ``frag``/
        ``nfrags``/``total_size`` filled in.  Returns the message id used.

        Packet-switched messages are fragmented at the 1 KB input-queue
        limit; circuit switching carries the whole message as one packet
        ("circuit switching must be used for larger packets", §4.2.3) —
        the CABs "select an optimal packet size" (§6.2.2).
        """
        msg_id = base_header.get("msg_id") or self.next_message_id()
        if mode == "auto" and not self.datalink.packet_fits(size):
            mode = "circuit"
        max_fragment = size if (mode == "circuit" and size > 0) \
            else self.cfg.transport.max_payload_bytes
        fragments = slice_data(data, size, max_fragment)
        nfrags = len(fragments)
        for index, (frag_size, chunk) in enumerate(fragments):
            header = {**base_header, "msg_id": msg_id, "frag": index,
                      "nfrags": nfrags, "total_size": size,
                      "src": self.cab.name}
            payload = Payload(frag_size, data=chunk, header=header)
            yield from self.kernel.compute(SEND_PACKET_CPU_NS + extra_cpu_ns)
            yield from self.transmit_payload(dst_cab, payload, mode=mode)
            self.counters["fragments_sent"] += 1
        return msg_id

    def deliver_message(self, message: Message, mailbox_name: str,
                        reliable: bool):
        """Deposit a completed message (generator).

        Unreliable protocols drop on a full mailbox; reliable ones block,
        which backpressures the sender through the ack window.
        """
        mailbox = self.mailboxes.get(mailbox_name)
        if mailbox is None:
            self.counters["drops_no_mailbox"] += 1
            return False
        yield from self.kernel.compute(MAILBOX_OP_NS)
        if reliable:
            yield mailbox.put(message)
            delivered = True
        else:
            delivered = mailbox.try_put(message)
            if not delivered:
                self.counters["drops_mailbox_full"] += 1
        if delivered:
            self.counters["messages_delivered"] += 1
            yield from self.kernel.wakeup_cost()
        return delivered
