"""TCP over Nectar IP (§6.2.2 future work, implemented).

A compact but real TCP: three-way handshake, byte sequence numbers,
cumulative acks, out-of-order receive buffering, RTT estimation
(Jacobson SRTT/RTTVAR), exponential RTO backoff, slow start, congestion
avoidance, fast retransmit on three duplicate acks, and FIN teardown.

Deliberate simplifications (documented for reviewers): no simultaneous
open, no TIME_WAIT 2MSL timer, fixed receive window, no delayed acks,
no SACK.  None of these affect the benchmarks' comparison against the
Nectar-specific byte-stream protocol.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Any, Optional

from ..config import MAX_PAYLOAD_BYTES, WAKEUP_NS
from ..errors import TransportError
from ..sim import Broadcast, Store
from .ip import PROTO_TCP, IpLayer

if TYPE_CHECKING:  # pragma: no cover
    from ..system.builder import CabStack

#: TCP header layout (20 bytes, no options).
_TCP_HEADER = struct.Struct("!HHIIBBHHH")
TCP_HEADER_BYTES = _TCP_HEADER.size

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_ACK = 0x10
FLAG_PSH = 0x08

#: CPU per TCP segment on the CAB: header processing, timers, window
#: bookkeeping.  Heavier than the Nectar-specific transport (§6.2.2).
TCP_CPU_NS = 6_000

#: Fixed advertised receive window (bytes).
RECEIVE_WINDOW = 64 * 1024

#: Initial / minimum / maximum retransmission timeout.
INITIAL_RTO_NS = 3_000_000
MIN_RTO_NS = 500_000
MAX_RTO_NS = 60_000_000_000

MAX_SYN_RETRIES = 8
MAX_DATA_RETRIES = 12


def pack_tcp_header(src_port: int, dst_port: int, seq: int, ack: int,
                    flags: int, window: int) -> bytes:
    return _TCP_HEADER.pack(src_port, dst_port, seq & 0xFFFFFFFF,
                            ack & 0xFFFFFFFF, 5 << 4, flags,
                            min(window, 0xFFFF), 0, 0)


def unpack_tcp_header(data: bytes) -> dict[str, Any]:
    (src_port, dst_port, seq, ack, _offset, flags, window, _sum,
     _urgent) = _TCP_HEADER.unpack_from(data)
    return {"src_port": src_port, "dst_port": dst_port, "seq": seq,
            "ack": ack, "flags": flags, "window": window}


class _Segment:
    """Book-keeping for one unacknowledged data segment."""

    __slots__ = ("seq", "size", "data", "sent_at", "retransmits")

    def __init__(self, seq: int, size: int, data: Optional[bytes]) -> None:
        self.seq = seq
        self.size = size
        self.data = data
        self.sent_at = 0
        self.retransmits = 0


class TcpListener:
    """A passive port: accepted connections arrive on a queue."""

    def __init__(self, layer: "TcpLayer", port: int) -> None:
        self.layer = layer
        self.port = port
        self.backlog: Store = Store(layer.stack.sim)

    def accept(self):
        """Wait for (and return) the next established connection."""
        connection = yield self.backlog.get()
        return connection


class TcpConnection:
    """One direction-agnostic TCP endpoint."""

    def __init__(self, layer: "TcpLayer", local_port: int,
                 remote_cab: str, remote_port: int,
                 initial_seq: int) -> None:
        self.layer = layer
        self.stack = layer.stack
        self.sim = layer.stack.sim
        self.local_port = local_port
        self.remote_cab = remote_cab
        self.remote_port = remote_port
        self.state = "CLOSED"
        # send side
        self.iss = initial_seq
        self.snd_una = initial_seq
        self.snd_nxt = initial_seq
        self.snd_wnd = RECEIVE_WINDOW
        self.unacked: dict[int, _Segment] = {}
        self.cwnd = 2 * self.mss
        self.ssthresh = 64 * 1024
        self.dupacks = 0
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = INITIAL_RTO_NS
        self._retransmit_timer = None
        self._pending: list[_Segment] = []
        self.window_open = Broadcast(self.sim)
        # receive side
        self.rcv_nxt = 0
        self.out_of_order: dict[int, tuple[int, Optional[bytes]]] = {}
        self.delivered: Store = Store(self.sim)
        self.remote_closed = False
        # lifecycle
        self.established = self.sim.event()
        self.retransmissions = 0

    # ------------------------------------------------------------------

    @property
    def mss(self) -> int:
        """Maximum segment size: Nectar packet minus IP+TCP headers."""
        from .ip import IP_HEADER_BYTES
        return MAX_PAYLOAD_BYTES - IP_HEADER_BYTES - TCP_HEADER_BYTES

    @property
    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def effective_window(self) -> int:
        return min(self.cwnd, self.snd_wnd)

    # ------------------------------------------------------------------
    # user API (generators)
    # ------------------------------------------------------------------

    def send(self, data: Optional[bytes] = None,
             size: Optional[int] = None):
        """Reliably send bytes; returns once everything is acked."""
        if self.state not in ("ESTABLISHED",):
            raise TransportError(f"send() in state {self.state}")
        body_size = len(data) if size is None else size
        offset = 0
        while offset < body_size:
            piece = min(self.mss, body_size - offset)
            chunk = data[offset:offset + piece] if data is not None else None
            self._pending.append(_Segment(0, piece, chunk))
            offset += piece
        target = self.snd_una + self.flight_size \
            + sum(seg.size for seg in self._pending)
        yield from self._pump()
        while self.snd_una < target:
            yield from self.stack.kernel.wait(self.window_open.wait())
            if self.state == "CLOSED":
                raise TransportError("connection reset during send")
            yield from self._pump()
        return body_size

    def receive(self, nbytes: int):
        """Block until ``nbytes`` have arrived in order.

        Returns the bytes (or None if the stream carries synthetic
        sizes).  Returns early with fewer bytes if the peer closed.
        """
        collected = []
        got = 0
        synthetic = False
        while got < nbytes:
            if self.remote_closed and not self.delivered.items:
                break
            size, chunk = yield self.delivered.get()
            got += size
            if chunk is None:
                synthetic = True
            else:
                collected.append(chunk)
        if synthetic or not collected:
            return {"size": got, "data": None}
        return {"size": got, "data": b"".join(collected)}

    def close(self):
        """Send FIN once all data is acked (half-close, generator)."""
        while self.snd_una < self.snd_nxt:
            yield from self.stack.kernel.wait(self.window_open.wait())
        if self.state == "ESTABLISHED":
            self.state = "FIN_WAIT"
            yield from self._emit(FLAG_FIN | FLAG_ACK, seq=self.snd_nxt)
            self.snd_nxt += 1  # FIN occupies one sequence number

    # ------------------------------------------------------------------
    # segment transmission
    # ------------------------------------------------------------------

    def _pump(self):
        """Transmit pending segments within the congestion window."""
        while self._pending and \
                self.flight_size + self._pending[0].size \
                <= self.effective_window:
            segment = self._pending.pop(0)
            segment.seq = self.snd_nxt
            self.snd_nxt += segment.size
            self.unacked[segment.seq] = segment
            segment.sent_at = self.sim.now
            yield from self._send_data(segment, first_time=True)
        self._arm_timer()

    def _send_data(self, segment: _Segment, first_time: bool):
        flags = FLAG_ACK | FLAG_PSH
        header = pack_tcp_header(self.local_port, self.remote_port,
                                 segment.seq, self.rcv_nxt, flags,
                                 RECEIVE_WINDOW)
        body = header + segment.data if segment.data is not None else None
        yield from self.stack.kernel.compute(TCP_CPU_NS)
        yield from self.layer.ip.send_segment(
            self.remote_cab, PROTO_TCP, body,
            None if body is not None
            else TCP_HEADER_BYTES + segment.size)

    def _emit(self, flags: int, seq: Optional[int] = None):
        """Send a control segment (SYN/ACK/FIN)."""
        header = pack_tcp_header(self.local_port, self.remote_port,
                                 self.snd_nxt if seq is None else seq,
                                 self.rcv_nxt, flags, RECEIVE_WINDOW)
        yield from self.stack.kernel.compute(TCP_CPU_NS)
        yield from self.layer.ip.send_segment(self.remote_cab, PROTO_TCP,
                                              header)

    # ------------------------------------------------------------------
    # timers and congestion control
    # ------------------------------------------------------------------

    def _arm_timer(self) -> None:
        if not self.unacked:
            self._cancel_timer()
            return
        self._cancel_timer()
        self._retransmit_timer = self.stack.board.timers.set(
            int(self.rto), self._on_timeout)

    def _cancel_timer(self) -> None:
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
            self._retransmit_timer = None

    def _on_timeout(self) -> None:
        if not self.unacked or self.state == "CLOSED":
            return
        self.sim.process(self._timeout_recovery(),
                         name=f"{self.stack.name}.tcp-rto")

    def _timeout_recovery(self):
        # RFC-style: collapse to one segment, back the timer off.
        self.ssthresh = max(self.flight_size // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.rto = min(self.rto * 2, MAX_RTO_NS)
        self.dupacks = 0
        seq = min(self.unacked)
        segment = self.unacked[seq]
        segment.retransmits += 1
        if segment.retransmits > MAX_DATA_RETRIES:
            self._reset("too many retransmissions")
            return
        self.retransmissions += 1
        yield from self._send_data(segment, first_time=False)
        self._arm_timer()

    def _update_rtt(self, sample_ns: int) -> None:
        if self.srtt is None:
            self.srtt = float(sample_ns)
            self.rttvar = sample_ns / 2
        else:
            delta = abs(self.srtt - sample_ns)
            self.rttvar = 0.75 * self.rttvar + 0.25 * delta
            self.srtt = 0.875 * self.srtt + 0.125 * sample_ns
        self.rto = max(MIN_RTO_NS,
                       min(int(self.srtt + 4 * self.rttvar) * 2,
                           MAX_RTO_NS))

    def _reset(self, reason: str) -> None:
        self.state = "CLOSED"
        self.remote_closed = True
        self._cancel_timer()
        self.window_open.fire()
        if not self.established.triggered:
            self.established.fail(TransportError(reason))

    # ------------------------------------------------------------------
    # inbound segment processing (generator, interrupt continuation)
    # ------------------------------------------------------------------

    def on_segment(self, header: dict[str, Any],
                   body: Optional[bytes], body_size: int):
        yield from self.stack.board.cpu.execute(TCP_CPU_NS)
        flags = header["flags"]
        if flags & FLAG_SYN and flags & FLAG_ACK:
            yield from self._on_syn_ack(header)
            return
        if flags & FLAG_SYN:
            # Duplicate SYN: our SYN+ACK was lost; repeat it.
            yield from self._emit(FLAG_SYN | FLAG_ACK, seq=self.iss)
            return
        if flags & FLAG_ACK:
            self._on_ack(header["ack"], header["window"])
        if body_size > 0:
            yield from self._on_data(header["seq"], body, body_size)
        if flags & FLAG_FIN:
            yield from self._on_fin(header)
        yield from self._pump()

    def _on_syn_ack(self, header: dict[str, Any]):
        if self.state != "SYN_SENT":
            return
        self.rcv_nxt = header["seq"] + 1
        self.snd_una = header["ack"]
        self.state = "ESTABLISHED"
        yield from self._emit(FLAG_ACK)
        if not self.established.triggered:
            self.established.succeed(self)

    def _on_ack(self, ack: int, window: int) -> None:
        self.snd_wnd = max(window, self.mss)
        if ack <= self.snd_una:
            if self.unacked and ack == self.snd_una:
                self.dupacks += 1
                if self.dupacks == 3:
                    self._fast_retransmit()
            return
        newly_acked = ack - self.snd_una
        self.dupacks = 0
        for seq in sorted(self.unacked):
            segment = self.unacked[seq]
            if seq + segment.size <= ack:
                if segment.retransmits == 0:
                    self._update_rtt(self.sim.now - segment.sent_at)
                del self.unacked[seq]
        self.snd_una = ack
        # Congestion window growth.
        if self.cwnd < self.ssthresh:
            self.cwnd += min(newly_acked, self.mss)      # slow start
        else:
            self.cwnd += max(self.mss * self.mss // self.cwnd, 1)
        self._arm_timer()
        self.window_open.fire()

    def _fast_retransmit(self) -> None:
        if not self.unacked:
            return
        self.ssthresh = max(self.flight_size // 2, 2 * self.mss)
        self.cwnd = self.ssthresh
        seq = min(self.unacked)
        segment = self.unacked[seq]
        segment.retransmits += 1
        self.retransmissions += 1
        self.sim.process(self._send_data(segment, first_time=False),
                         name=f"{self.stack.name}.tcp-fastrexmit")

    def _on_data(self, seq: int, body: Optional[bytes], size: int):
        if seq + size <= self.rcv_nxt:
            pass  # duplicate
        elif seq > self.rcv_nxt:
            self.out_of_order[seq] = (size, body)
        else:
            self._deliver(size - (self.rcv_nxt - seq),
                          body[self.rcv_nxt - seq:]
                          if body is not None else None)
            self.rcv_nxt = seq + size
            while self.rcv_nxt in self.out_of_order:
                o_size, o_body = self.out_of_order.pop(self.rcv_nxt)
                self._deliver(o_size, o_body)
                self.rcv_nxt += o_size
        yield from self._emit(FLAG_ACK)

    def _deliver(self, size: int, body: Optional[bytes]) -> None:
        if size > 0:
            self.delivered.put((size, body))

    def _on_fin(self, header: dict[str, Any]):
        self.rcv_nxt = max(self.rcv_nxt, header["seq"] + 1)
        self.remote_closed = True
        if self.delivered._getters:
            # Wake blocked readers with an empty chunk so they can end.
            self.delivered.put((0, b""))
        if self.state == "ESTABLISHED":
            self.state = "CLOSE_WAIT"
        elif self.state == "FIN_WAIT":
            self.state = "CLOSED"
        yield from self._emit(FLAG_ACK)


class TcpLayer:
    """Per-CAB TCP: listeners, connections, demux."""

    def __init__(self, ip: IpLayer) -> None:
        self.ip = ip
        self.stack = ip.stack
        self.sim = ip.stack.sim
        self.listeners: dict[int, TcpListener] = {}
        self.connections: dict[tuple[int, str, int], TcpConnection] = {}
        self._next_port = 30_000
        self._next_iss = 1_000
        ip.bind(PROTO_TCP, self)

    def listen(self, port: int) -> TcpListener:
        if port in self.listeners:
            raise TransportError(f"TCP port {port} already listening")
        listener = TcpListener(self, port)
        self.listeners[port] = listener
        return listener

    def connect(self, dst_cab: str, dst_port: int):
        """Active open (generator); returns an ESTABLISHED connection."""
        local_port = self._next_port
        self._next_port += 1
        self._next_iss += 64_000
        connection = TcpConnection(self, local_port, dst_cab, dst_port,
                                   self._next_iss)
        self.connections[(local_port, dst_cab, dst_port)] = connection
        connection.state = "SYN_SENT"
        for attempt in range(MAX_SYN_RETRIES):
            yield from connection._emit(FLAG_SYN, seq=connection.iss)
            connection.snd_nxt = connection.iss + 1
            # Exponential backoff (RFC 6298 §5.5 style): linear growth
            # exhausted the retry budget under sustained heavy loss.
            deadline = self.sim.timeout(
                min(INITIAL_RTO_NS << attempt, MAX_RTO_NS))
            result = yield self.sim.any_of([connection.established,
                                            deadline])
            if connection.established in result:
                yield from self.stack.kernel.compute(WAKEUP_NS)
                return connection
        raise TransportError(f"TCP connect to {dst_cab}:{dst_port} "
                             f"timed out")

    # ------------------------------------------------------------------
    # demux from IP
    # ------------------------------------------------------------------

    def segment_arrived(self, src_cab: str, segment: Optional[bytes],
                        size: int):
        if segment is not None:
            header = unpack_tcp_header(segment)
            body = segment[TCP_HEADER_BYTES:]
            body_size = size - TCP_HEADER_BYTES
        else:
            # Synthetic traffic cannot be demultiplexed without headers;
            # real header bytes always accompany control segments, so
            # this only happens for bulk data on a known connection.
            header = None
            body = None
            body_size = size - TCP_HEADER_BYTES
        if header is None:
            connection = next(iter(self.connections.values()), None)
            if connection is not None:
                yield from connection.on_segment(
                    {"flags": FLAG_ACK | FLAG_PSH,
                     "seq": connection.rcv_nxt, "ack": connection.snd_una,
                     "window": RECEIVE_WINDOW}, body, body_size)
            return
        key = (header["dst_port"], src_cab, header["src_port"])
        connection = self.connections.get(key)
        if connection is not None:
            yield from connection.on_segment(header, body, body_size)
            return
        if header["flags"] & FLAG_SYN and not header["flags"] & FLAG_ACK:
            yield from self._passive_open(src_cab, header)

    def _passive_open(self, src_cab: str, header: dict[str, Any]):
        listener = self.listeners.get(header["dst_port"])
        if listener is None:
            return
        self._next_iss += 64_000
        connection = TcpConnection(self, header["dst_port"], src_cab,
                                   header["src_port"], self._next_iss)
        key = (header["dst_port"], src_cab, header["src_port"])
        self.connections[key] = connection
        connection.rcv_nxt = header["seq"] + 1
        connection.state = "ESTABLISHED"
        connection.snd_nxt = connection.iss + 1
        connection.snd_una = connection.iss + 1
        yield from connection._emit(FLAG_SYN | FLAG_ACK,
                                    seq=connection.iss)
        connection.established.succeed(connection)
        listener.backlog.put(connection)
        yield from self.stack.kernel.wakeup_cost()
