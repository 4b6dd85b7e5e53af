"""IP over the Nectar-net (§6.2.2 future work, implemented).

"The current transport protocols are simple and Nectar-specific.  We
plan to experiment with the corresponding Internet protocols (IP, TCP,
and VMTP) over Nectar in the coming year."

This module is that experiment: a real (if compact) IPv4 layer running
on the CAB — real packed headers on the wire, fragmentation at the
Nectar packet limit, reassembly by (source, identification) — plus UDP.
TCP lives in :mod:`repro.inet.tcp`.  The point of the benchmarks is the
*generality tax*: byte-for-byte the Internet stack pays header overhead
and extra header processing compared to the Nectar-specific transports.
"""

from __future__ import annotations

import struct
from itertools import count
from typing import TYPE_CHECKING, Any, Optional

from ..config import MAX_PAYLOAD_BYTES
from ..errors import TransportError
from ..hardware.frames import Payload
from ..sim import Store
from ..transport.reassembly import ReassemblyBuffer

if TYPE_CHECKING:  # pragma: no cover
    from ..system.builder import CabStack

#: IPv4 header layout (20 bytes, no options).
_IP_HEADER = struct.Struct("!BBHHHBBHII")
IP_HEADER_BYTES = _IP_HEADER.size
#: UDP header layout (8 bytes).
_UDP_HEADER = struct.Struct("!HHHH")
UDP_HEADER_BYTES = _UDP_HEADER.size

PROTO_TCP = 6
PROTO_UDP = 17

#: Extra CPU per IP packet on the 16 MHz CAB (header build/parse, route
#: lookup) — the generality tax over the Nectar-specific headers.
IP_CPU_NS = 2_500
#: UDP-layer CPU per datagram (port demux, length/checksum fields).
UDP_CPU_NS = 1_500


def cab_address(cab_name: str) -> int:
    """A deterministic 10.x.y.z address for a CAB."""
    digest = 0
    for ch in cab_name.encode():
        digest = (digest * 131 + ch) & 0xFFFF
    return (10 << 24) | (digest << 8) | 1


def format_address(address: int) -> str:
    return ".".join(str((address >> shift) & 0xFF)
                    for shift in (24, 16, 8, 0))


def pack_ip_header(src: int, dst: int, protocol: int, total_length: int,
                   identification: int, frag_offset: int,
                   more_fragments: bool) -> bytes:
    flags_frag = ((0x2000 if more_fragments else 0)
                  | ((frag_offset // 8) & 0x1FFF))
    return _IP_HEADER.pack(0x45, 0, total_length, identification,
                           flags_frag, 64, protocol, 0, src, dst)


def unpack_ip_header(data: bytes) -> dict[str, Any]:
    (ver_ihl, _tos, total_length, identification, flags_frag, ttl,
     protocol, _sum, src, dst) = _IP_HEADER.unpack_from(data)
    return {
        "version": ver_ihl >> 4,
        "total_length": total_length,
        "id": identification,
        "more_fragments": bool(flags_frag & 0x2000),
        "frag_offset": (flags_frag & 0x1FFF) * 8,
        "ttl": ttl,
        "protocol": protocol,
        "src": src,
        "dst": dst,
    }


class IpLayer:
    """Per-CAB IPv4: encapsulation, fragmentation, reassembly, demux."""

    protos = ("ip",)

    def __init__(self, stack: "CabStack") -> None:
        self.stack = stack
        self.sim = stack.sim
        self.address = cab_address(stack.name)
        self._upper: dict[int, Any] = {}
        #: Partial datagrams by (src_cab, ip id); ids wrap, so a partial
        #: past the timeout never takes a fragment of a later datagram.
        self.reassembly = ReassemblyBuffer(
            stack.system.cfg.transport.reassembly_timeout_ns,
            keys_recur=True)
        self._ip_ids = count(1)
        self.packets_sent = 0
        self.packets_received = 0
        self.fragments_created = 0
        stack.transport.register_protocol(self)

    def bind(self, protocol: int, upper: Any) -> None:
        """Attach an upper layer (``segment_arrived`` generator)."""
        if protocol in self._upper:
            raise TransportError(f"IP protocol {protocol} already bound")
        self._upper[protocol] = upper

    @property
    def mtu(self) -> int:
        """Largest IP packet the Nectar datalink carries in one piece."""
        return MAX_PAYLOAD_BYTES

    # ------------------------------------------------------------------
    # send path (generator, thread or interrupt continuation context)
    # ------------------------------------------------------------------

    def send_segment(self, dst_cab: str, protocol: int,
                     segment_data: Optional[bytes],
                     segment_size: Optional[int] = None):
        """Encapsulate one upper-layer segment and transmit it.

        Fragments at the MTU; each fragment carries a real packed IPv4
        header on the wire.  The 16-bit identification wraps, as in IPv4.
        """
        size = len(segment_data) if segment_size is None else segment_size
        identification = next(self._ip_ids) & 0xFFFF
        dst_address = cab_address(dst_cab)
        payload_mtu = self.mtu - IP_HEADER_BYTES
        nfrags = max(1, -(-size // payload_mtu))
        offset = index = 0
        while True:
            piece = min(payload_mtu, size - offset)
            more = offset + piece < size
            header_bytes = pack_ip_header(
                self.address, dst_address, protocol,
                IP_HEADER_BYTES + piece, identification, offset, more)
            if segment_data is not None:
                body = header_bytes + segment_data[offset:offset + piece]
            else:
                body = None
            payload = Payload(IP_HEADER_BYTES + piece, data=body, header={
                "proto": "ip", "src": self.stack.name, "ip_id": identification,
                "ip_proto": protocol, "frag": index, "nfrags": nfrags,
                "total_size": size})
            yield from self.stack.kernel.compute(IP_CPU_NS)
            self.packets_sent += 1
            if more:
                self.fragments_created += 1
            yield from self.stack.transport.transmit_payload(
                dst_cab, payload, mode="packet")
            offset += piece
            index += 1
            if not more:
                break

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def accept(self, header: dict[str, Any]) -> bool:
        return header.get("ip_proto") in self._upper

    def handle(self, packet):
        payload = packet.payload
        header = payload.header
        yield from self.stack.board.cpu.execute(IP_CPU_NS)
        self.packets_received += 1
        if payload.data is not None:
            # Parse the real wire header and cross-check the metadata.
            parsed = unpack_ip_header(payload.data)
            if parsed["protocol"] != header["ip_proto"]:
                return  # malformed; drop
            body = payload.data[IP_HEADER_BYTES:]
        else:
            body = None
        partial = self.reassembly.add_fragment(
            (header["src"], header["ip_id"]),
            Payload(payload.size - IP_HEADER_BYTES, data=body, header=header),
            self.sim.now)
        if partial is None:
            return
        total, segment = partial.assemble()
        upper = self._upper.get(header["ip_proto"])
        if upper is not None:
            yield from upper.segment_arrived(header["src"], segment, total)


class UdpSocket:
    """A bound UDP port: datagrams in, datagrams out."""

    def __init__(self, layer: "UdpLayer", port: int) -> None:
        self.layer = layer
        self.port = port
        self.queue: Store = Store(layer.stack.sim)

    def send(self, dst_cab: str, dst_port: int,
             data: Optional[bytes] = None, size: Optional[int] = None):
        """Send one UDP datagram (generator)."""
        yield from self.layer.send(self.port, dst_cab, dst_port, data, size)

    def receive(self):
        """Wait for the next datagram (generator); returns a dict.

        Charged like any blocking kernel wait: the reader thread pays
        the context-switch cost on wakeup (§6.1).
        """
        datagram = yield from self.layer.stack.kernel.wait(
            self.queue.get())
        return datagram

    def close(self) -> None:
        self.layer.sockets.pop(self.port, None)


class UdpLayer:
    """UDP over :class:`IpLayer`: real 8-byte headers, port demux."""

    def __init__(self, ip: IpLayer) -> None:
        self.ip = ip
        self.stack = ip.stack
        self.sockets: dict[int, UdpSocket] = {}
        ip.bind(PROTO_UDP, self)

    def open(self, port: int) -> UdpSocket:
        if port in self.sockets:
            raise TransportError(f"UDP port {port} in use")
        socket = UdpSocket(self, port)
        self.sockets[port] = socket
        return socket

    def send(self, src_port: int, dst_cab: str, dst_port: int,
             data: Optional[bytes], size: Optional[int] = None):
        body_size = len(data) if size is None else size
        header = _UDP_HEADER.pack(src_port, dst_port,
                                  UDP_HEADER_BYTES + body_size, 0)
        segment = header + data if data is not None else None
        yield from self.ip.send_segment(
            dst_cab, PROTO_UDP, segment,
            None if segment is not None else UDP_HEADER_BYTES + body_size)

    def segment_arrived(self, src_cab: str, segment: Optional[bytes],
                        size: int):
        if segment is not None:
            src_port, dst_port, length, _sum = \
                _UDP_HEADER.unpack_from(segment)
            body = segment[UDP_HEADER_BYTES:]
        else:
            src_port = dst_port = 0
            body = None
        socket = self.sockets.get(dst_port) if segment is not None else \
            (next(iter(self.sockets.values()), None))
        if socket is None:
            return
        yield from self.stack.board.cpu.execute(UDP_CPU_NS)
        socket.queue.put({"src_cab": src_cab, "src_port": src_port,
                          "data": body, "size": size - UDP_HEADER_BYTES})
        yield from self.stack.kernel.wakeup_cost()
