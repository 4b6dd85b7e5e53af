"""The byte-stream protocol (§6.2.2).

"The byte-stream protocol provides reliable communication using
acknowledgments, retransmissions, and a sliding window for flow control."

One :class:`StreamConnection` is a simplex reliable channel from this CAB
to a destination mailbox.  Packets carry per-connection sequence numbers;
the receiver accepts in order (go-back-N), acknowledges cumulatively, and
reassembles message boundaries from fragment headers.  Loss, corruption
and reordering injected by the fault model are recovered here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Any, Optional

from ..config import RELIABILITY_CPU_NS, SEND_PACKET_CPU_NS
from ..errors import TransportError
from ..hardware.frames import Payload
from ..kernel.mailbox import Message
from ..sim import Broadcast
from .base import message_size, slice_data

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.frames import Packet
    from .base import TransportManager


@dataclass
class _Unacked:
    """A sent-but-unacknowledged packet (for go-back-N retransmission)."""

    seq: int
    header: dict[str, Any]
    size: int
    data: Optional[bytes]
    retransmits: int = 0
    #: First-transmission time (Karn: RTT-sampled only if never resent).
    sent_ns: int = 0


class StreamConnection:
    """Sender-side state of one reliable channel."""

    def __init__(self, proto: "ByteStreamProtocol", dst_cab: str,
                 dst_mailbox: str) -> None:
        self.proto = proto
        self.manager = proto.manager
        self.dst_cab = dst_cab
        self.dst_mailbox = dst_mailbox
        self.channel = next(proto._channel_ids)
        self.snd_next = 0
        self.snd_una = 0
        self.unacked: dict[int, _Unacked] = {}
        self.acked = Broadcast(self.manager.sim)
        self.failed: Optional[TransportError] = None
        self._timer = None
        self.retransmissions = 0
        proto.connections[(self.manager.cab.name, self.channel)] = self

    # ------------------------------------------------------------------

    @property
    def inflight(self) -> int:
        return self.snd_next - self.snd_una

    def send(self, data: Optional[bytes] = None,
             size: Optional[int] = None):
        """Reliably send one message (generator, thread context).

        Returns once every fragment has been acknowledged.
        """
        if self.failed is not None:
            raise self.failed
        self.manager.check_peer(self.dst_cab)
        cfg = self.manager.cfg.transport
        body_size = message_size(data, size)
        msg_id = self.manager.next_message_id()
        fragments = slice_data(data, body_size, cfg.max_payload_bytes)
        nfrags = len(fragments)
        last_seq = None
        for index, (frag_size, chunk) in enumerate(fragments):
            while self.inflight >= cfg.window_packets:
                yield from self.manager.kernel.wait(self.acked.wait())
                if self.failed is not None:
                    raise self.failed
            seq = self.snd_next
            self.snd_next += 1
            last_seq = seq
            header = {"proto": "bs", "channel": self.channel,
                      "seq": seq, "dst_mailbox": self.dst_mailbox,
                      "msg_id": msg_id, "frag": index, "nfrags": nfrags,
                      "total_size": body_size,
                      "src": self.manager.cab.name}
            self.unacked[seq] = _Unacked(seq, header, frag_size, chunk,
                                         sent_ns=self.manager.sim.now)
            yield from self.manager.kernel.compute(
                SEND_PACKET_CPU_NS + RELIABILITY_CPU_NS)
            yield from self._transmit(self.unacked[seq])
            self._arm_timer()
        # Reliable semantics: wait until the final fragment is acked.
        while self.snd_una <= last_seq:
            yield from self.manager.kernel.wait(self.acked.wait())
            if self.failed is not None:
                raise self.failed
        return msg_id

    def _transmit(self, record: _Unacked):
        payload = Payload(record.size, data=record.data,
                          header=dict(record.header))
        yield from self.manager.transmit_payload(self.dst_cab, payload,
                                                 mode="auto")

    # ------------------------------------------------------------------
    # acknowledgement & retransmission
    # ------------------------------------------------------------------

    def handle_ack(self, ack: int) -> None:
        """Cumulative ack: everything below ``ack`` has been received."""
        if ack <= self.snd_una:
            return
        estimator = self.manager.rto_for(self.dst_cab)
        now = self.manager.sim.now
        for seq in range(self.snd_una, ack):
            record = self.unacked.pop(seq, None)
            if record is None:
                continue
            if record.retransmits == 0:
                # Karn's rule: retransmitted packets give ambiguous RTTs.
                estimator.on_sample(now - record.sent_ns)
            else:
                estimator.on_success()
        self.snd_una = ack
        self.manager.peer_success(self.dst_cab)
        self.acked.fire()
        if self.unacked:
            self._arm_timer()
        else:
            self._cancel_timer()

    def _arm_timer(self) -> None:
        self._cancel_timer()
        self._timer = self.manager.cab.timers.set(
            self.manager.rto_for(self.dst_cab).current_rto_ns(),
            self._on_timeout)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_timeout(self) -> None:
        if not self.unacked or self.failed is not None:
            return
        self.manager.rto_for(self.dst_cab).on_timeout()
        self.manager.sim.process(
            self._retransmit(),
            name=f"{self.manager.cab.name}.bs{self.channel}.rexmit")

    def _retransmit(self):
        """Go-back-N: resend every unacked packet in order."""
        cfg = self.manager.cfg.transport
        pending = sorted(self.unacked)
        for seq in pending:
            record = self.unacked.get(seq)
            if record is None:
                continue
            record.retransmits += 1
            if record.retransmits > cfg.max_retransmits:
                self.failed = TransportError(
                    f"stream {self.channel} to {self.dst_cab}: packet "
                    f"{seq} lost after {cfg.max_retransmits} retransmits")
                self.manager.peer_failure(self.dst_cab)
                self.acked.fire()
                self._cancel_timer()
                return
            self.retransmissions += 1
            self.proto.retransmitted += 1
            yield from self.manager.kernel.compute(
                SEND_PACKET_CPU_NS + RELIABILITY_CPU_NS)
            yield from self._transmit(record)
        if self.unacked:
            self._arm_timer()


@dataclass
class _RecvState:
    """Receiver-side state of one channel (keyed by src CAB + channel)."""

    expected_seq: int = 0
    fragments: list[Payload] = None

    def __post_init__(self) -> None:
        if self.fragments is None:
            self.fragments = []


class ByteStreamProtocol:
    """Reliable sliding-window message transfer between mailboxes."""

    protos = ("bs", "bs_ack")

    def __init__(self, manager: "TransportManager") -> None:
        self.manager = manager
        # Per-protocol so back-to-back simulations allocate identical ids.
        self._channel_ids = count(1)
        self.connections: dict[tuple[str, int], StreamConnection] = {}
        self.receivers: dict[tuple[str, int], _RecvState] = {}
        self.retransmitted = 0
        self.duplicates = 0

    # ------------------------------------------------------------------

    def connect(self, dst_cab: str, dst_mailbox: str) -> StreamConnection:
        """Open a reliable channel to a remote mailbox."""
        return StreamConnection(self, dst_cab, dst_mailbox)

    # ------------------------------------------------------------------

    def accept(self, header: dict[str, Any]) -> bool:
        if header["proto"] == "bs_ack":
            return True
        return self.manager.has_mailbox(header.get("dst_mailbox", ""))

    def handle(self, packet: "Packet"):
        header = packet.payload.header
        if header["proto"] == "bs_ack":
            yield from self._handle_ack(header)
        else:
            yield from self._handle_data(packet)

    def _handle_ack(self, header: dict[str, Any]):
        yield from self.manager.cab.cpu.execute(RELIABILITY_CPU_NS)
        key = (header["dst"], header["channel"])
        connection = self.connections.get(key)
        if connection is not None:
            connection.handle_ack(header["ack"])

    def _handle_data(self, packet: "Packet"):
        payload = packet.payload
        header = payload.header
        key = (header["src"], header["channel"])
        state = self.receivers.setdefault(key, _RecvState())
        seq = header["seq"]
        if seq > state.expected_seq:
            # A gap: go-back-N receivers drop out-of-order packets.
            return
        if seq < state.expected_seq:
            # Duplicate from a retransmission: re-ack so the sender moves.
            self.duplicates += 1
            yield from self._send_ack(header, state.expected_seq)
            return
        state.expected_seq += 1
        state.fragments.append(payload)
        yield from self._send_ack(header, state.expected_seq)
        if header["frag"] == header["nfrags"] - 1:
            fragments, state.fragments = state.fragments, []
            message = self._assemble(header, fragments)
            yield from self.manager.deliver_message(
                message, header["dst_mailbox"], reliable=True)

    def _assemble(self, header: dict[str, Any],
                  fragments: list[Payload]) -> Message:
        if any(payload.data is None for payload in fragments):
            data = None
        else:
            data = b"".join(payload.data for payload in fragments)
        return Message(src=header["src"], dst_mailbox=header["dst_mailbox"],
                       size=header["total_size"], data=data, kind="stream",
                       meta={"channel": header["channel"],
                             "msg_id": header["msg_id"]})

    def _send_ack(self, data_header: dict[str, Any], ack: int):
        yield from self.manager.cab.cpu.execute(RELIABILITY_CPU_NS)
        ack_header = {"proto": "bs_ack", "channel": data_header["channel"],
                      "ack": ack, "dst": data_header["src"],
                      "src": self.manager.cab.name}
        payload = Payload(0, header=ack_header)
        yield from self.manager.transmit_payload(data_header["src"], payload,
                                                 mode="packet")
