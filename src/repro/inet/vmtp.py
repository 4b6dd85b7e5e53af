"""VMTP over Nectar IP — the third protocol §6.2.2 names.

"We plan to experiment with the corresponding Internet protocols (IP,
TCP, and VMTP) over Nectar."  VMTP (Cheriton, RFC 1045) is a
transaction protocol: a request is one *packet group* — up to 32
segments covered by a 32-bit delivery mask — answered by a response
packet group; the response implicitly acknowledges the request, and
missing segments are retransmitted *selectively*: an incomplete group
times out at the receiver, which NACKs the missing-segment mask, and
only those segments are resent.  Duplicate transactions are answered
from a response cache (at-most-once execution).

Simplifications versus the full RFC: one packet group per message (no
multi-group streaming), no rate-based interpacket gaps, messages carry
real bytes (the header and mask arithmetic operate on the wire data).
"""

from __future__ import annotations

import struct
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..config import MAX_PAYLOAD_BYTES, WAKEUP_NS
from ..errors import TransportError

if TYPE_CHECKING:  # pragma: no cover
    from .ip import IpLayer

PROTO_VMTP = 81

#: VMTP wire header: kind, transaction, port, segment, nsegs, mask.
_HEADER = struct.Struct("!BIHBBI")
VMTP_HEADER_BYTES = 16  # header charge on the wire (padded to 16)

#: A packet group covers at most 32 segments (the delivery mask width).
MAX_SEGMENTS = 32

#: Per-packet VMTP processing on the CAB.
VMTP_CPU_NS = 4_000

#: Receiver-side gap detection: NACK an incomplete group this long
#: after its last arrival.
NACK_DELAY_NS = 500_000

_KIND_REQUEST = 0
_KIND_RESPONSE = 1
_KIND_NACK = 2


class _Group:
    """Reassembly state for one packet group."""

    __slots__ = ("chunks", "expected", "port", "nack_timer")

    def __init__(self, expected: int) -> None:
        self.chunks: dict[int, bytes] = {}
        self.expected = expected
        self.port = 0
        self.nack_timer = None

    @property
    def complete(self) -> bool:
        return len(self.chunks) == self.expected

    def missing_mask(self) -> int:
        mask = 0
        for index in range(self.expected):
            if index not in self.chunks:
                mask |= 1 << index
        return mask

    def assemble(self) -> bytes:
        return b"".join(self.chunks[i] for i in range(self.expected))


class VmtpLayer:
    """Per-CAB VMTP: message transactions between client and servers."""

    def __init__(self, ip: "IpLayer") -> None:
        self.ip = ip
        self.stack = ip.stack
        self.sim = ip.stack.sim
        self._servers: dict[int, Callable[[dict[str, Any]], Any]] = {}
        #: txn -> client-side state.
        self._pending: dict[int, dict[str, Any]] = {}
        self._transaction_ids = count(1)
        #: (peer cab, txn, kind) -> reassembly group.
        self._groups: dict[tuple[str, int, int], _Group] = {}
        #: (client cab, txn) -> cached response bytes (at-most-once).
        self._responses: dict[tuple[str, int], Optional[bytes]] = {}
        self.transactions_completed = 0
        self.selective_retransmits = 0
        self.nacks_sent = 0
        self.duplicates_suppressed = 0
        ip.bind(PROTO_VMTP, self)

    def _segment_bytes(self) -> int:
        from .ip import IP_HEADER_BYTES
        return MAX_PAYLOAD_BYTES - IP_HEADER_BYTES - VMTP_HEADER_BYTES

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------

    def register_server(self, port: int,
                        handler: Callable[[dict[str, Any]], Any]) -> None:
        """``handler(request)`` is a generator returning response bytes;
        requests are dicts with ``src`` and ``data``."""
        if port in self._servers:
            raise TransportError(f"VMTP port {port} already registered")
        self._servers[port] = handler

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------

    def transact(self, dst_cab: str, port: int, data: bytes):
        """Run one message transaction (generator); returns response
        bytes.  Missing request segments are NACK-driven and resent
        selectively.

        Each attempt waits the peer's current RTO from the CAB's shared
        estimator, which backs off when that timer (not a NACK) ends the
        attempt; the transaction fails after ``max_retransmits`` resends.
        """
        if not isinstance(data, (bytes, bytearray)):
            raise TransportError("VMTP messages carry real bytes")
        data = bytes(data)
        seg_bytes = self._segment_bytes()
        nsegs = max(1, -(-len(data) // seg_bytes))
        if nsegs > MAX_SEGMENTS:
            raise TransportError(
                f"{len(data)} B exceeds one packet group "
                f"({MAX_SEGMENTS} × {seg_bytes} B)")
        txn = next(self._transaction_ids)
        state: dict[str, Any] = {"response": self.sim.event(),
                                 "nack": None}
        self._pending[txn] = state
        estimator = self.stack.transport.rto_for(dst_cab)
        attempts = self.stack.system.cfg.transport.max_retransmits + 1
        first_sent_ns = self.sim.now
        try:
            for attempt in range(attempts):
                if state["nack"] is not None:
                    indices = [i for i in range(nsegs)
                               if state["nack"] & (1 << i)]
                    self.selective_retransmits += len(indices)
                    state["nack"] = None
                else:
                    indices = list(range(nsegs))
                    if attempt:
                        # The timer, not a NACK, ended the last attempt.
                        estimator.on_timeout()
                        self.selective_retransmits += nsegs
                for index in indices:
                    yield from self._send_segment(
                        dst_cab, _KIND_REQUEST, port, txn, index, nsegs,
                        data, seg_bytes)
                deadline = self.sim.timeout(estimator.current_rto_ns())
                state["wake"] = self.sim.event()   # NACK arrival
                outcome = yield self.sim.any_of([state["response"],
                                                 state["wake"], deadline])
                yield from self.stack.kernel.compute(WAKEUP_NS)
                if state["response"] in outcome:
                    if attempt == 0:
                        # Karn's rule: only an exchange that was never
                        # resent gives an unambiguous round trip.
                        estimator.on_sample(self.sim.now - first_sent_ns)
                    else:
                        estimator.on_success()
                    self.transactions_completed += 1
                    return state["response"].value
            raise TransportError(
                f"VMTP transaction {txn} to {dst_cab}:{port} failed "
                f"after {attempts} attempts")
        finally:
            self._pending.pop(txn, None)

    # ------------------------------------------------------------------
    # wire
    # ------------------------------------------------------------------

    def _send_segment(self, dst_cab: str, kind: int, port: int, txn: int,
                      index: int, nsegs: int, data: bytes,
                      seg_bytes: int):
        start = index * seg_bytes
        chunk = data[start:start + seg_bytes]
        header = _HEADER.pack(kind, txn, port, index, nsegs, 0)
        padding = bytes(VMTP_HEADER_BYTES - _HEADER.size)
        yield from self.stack.kernel.compute(VMTP_CPU_NS)
        yield from self.ip.send_segment(dst_cab, PROTO_VMTP,
                                        header + padding + chunk)

    def _send_control(self, dst_cab: str, kind: int, txn: int,
                      mask: int):
        header = _HEADER.pack(kind, txn, 0, 0, 0, mask)
        padding = bytes(VMTP_HEADER_BYTES - _HEADER.size)
        yield from self.stack.kernel.compute(VMTP_CPU_NS)
        yield from self.ip.send_segment(dst_cab, PROTO_VMTP,
                                        header + padding)

    def segment_arrived(self, src_cab: str, segment: bytes):
        yield from self.stack.board.cpu.execute(VMTP_CPU_NS)
        kind, txn, port, index, nsegs, mask = _HEADER.unpack_from(segment)
        chunk = segment[VMTP_HEADER_BYTES:]
        if kind == _KIND_REQUEST:
            yield from self._on_request(src_cab, txn, port, index, nsegs,
                                        chunk)
        elif kind == _KIND_RESPONSE:
            self._on_response(txn, index, nsegs, chunk)
        elif kind == _KIND_NACK:
            self._on_nack(txn, mask)

    # ------------------------------------------------------------------

    def _on_request(self, src_cab: str, txn: int, port: int, index: int,
                    nsegs: int, chunk: bytes):
        key = (src_cab, txn)
        if key in self._responses:
            cached = self._responses[key]
            if cached is not None:
                self.duplicates_suppressed += 1
                yield from self._send_response(src_cab, txn, cached)
            return
        group_key = (src_cab, txn, _KIND_REQUEST)
        group = self._groups.get(group_key)
        if group is None:
            group = _Group(nsegs)
            group.port = port
            self._groups[group_key] = group
        group.chunks[index] = chunk
        if not group.complete:
            self._arm_nack(src_cab, txn, group)
            return
        if group.nack_timer is not None:
            group.nack_timer.cancel()
        del self._groups[group_key]
        handler = self._servers.get(group.port)
        if handler is None:
            return
        self._responses[key] = None          # in-progress marker
        result = yield from handler({"src": src_cab,
                                     "data": group.assemble()})
        if not isinstance(result, (bytes, bytearray)):
            raise TransportError("VMTP handlers return bytes")
        self._responses[key] = bytes(result)
        yield from self._send_response(src_cab, txn, bytes(result))

    def _arm_nack(self, src_cab: str, txn: int, group: _Group) -> None:
        """Gap detection: NACK the missing mask if the group stalls."""
        if group.nack_timer is not None:
            group.nack_timer.cancel()

        def fire() -> None:
            if group.complete:
                return
            self.nacks_sent += 1
            self.sim.process(
                self._send_control(src_cab, _KIND_NACK, txn,
                                   group.missing_mask()),
                name=f"{self.stack.name}.vmtp-nack")
            self._arm_nack(src_cab, txn, group)
        group.nack_timer = self.stack.board.timers.set(NACK_DELAY_NS,
                                                       fire)

    def _send_response(self, dst_cab: str, txn: int, data: bytes):
        seg_bytes = self._segment_bytes()
        nsegs = max(1, -(-len(data) // seg_bytes))
        for index in range(nsegs):
            yield from self._send_segment(dst_cab, _KIND_RESPONSE, 0,
                                          txn, index, nsegs, data,
                                          seg_bytes)

    def _on_response(self, txn: int, index: int, nsegs: int,
                     chunk: bytes) -> None:
        state = self._pending.get(txn)
        if state is None:
            return
        group = state.setdefault("group", _Group(nsegs))
        group.chunks[index] = chunk
        if group.complete and not state["response"].triggered:
            state["response"].succeed(group.assemble())

    def _on_nack(self, txn: int, mask: int) -> None:
        state = self._pending.get(txn)
        if state is None:
            return
        state["nack"] = mask
        wake = state.get("wake")
        if wake is not None and not wake.triggered:
            wake.succeed()   # retransmit the missing mask immediately
