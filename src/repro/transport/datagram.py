"""The datagram protocol (§6.2.2).

"The datagram protocol has low overhead but does not guarantee packet
delivery; it is a direct interface to the datalink layer and should only
be used by applications that can tolerate or recover from lost packets."
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..config import SEND_PACKET_CPU_NS
from ..hardware.frames import Payload
from ..kernel.mailbox import Message
from .base import message_size
from .reassembly import ReassemblyBuffer

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.frames import Packet
    from .base import TransportManager

class DatagramProtocol:
    """Unreliable message transfer between mailboxes."""

    protos = ("dg",)

    def __init__(self, manager: "TransportManager") -> None:
        self.manager = manager
        self.reassembly = ReassemblyBuffer(
            manager.cfg.transport.reassembly_timeout_ns)
        self.sent = 0
        self.received = 0

    # ------------------------------------------------------------------

    def send(self, dst_cab: str, dst_mailbox: str,
             data: Optional[bytes] = None, size: Optional[int] = None,
             mode: str = "auto", kind: str = "data",
             meta: Optional[dict[str, Any]] = None):
        """Send one message (generator, thread context).

        Returns once the last fragment's tail has left this CAB.
        """
        body_size = message_size(data, size)
        header = {"proto": "dg", "dst_mailbox": dst_mailbox, "kind": kind}
        if meta:
            header["meta"] = dict(meta)
        self.sent += 1
        msg_id = yield from self.manager.send_fragments(
            dst_cab, header, data, body_size, mode=mode)
        return msg_id

    def send_piece(self, dst_cab: str, dst_mailbox: str,
                   data: Optional[bytes], size: int, msg_id: int,
                   index: int, count: int, total_size: int):
        """Send one explicit fragment of a larger message (generator).

        Used by the node interfaces' packet pipeline (§6.2.2): the caller
        controls fragmentation so VME and fiber transfers can overlap;
        the receiver reassembles via the normal datagram path.
        """
        header = {"proto": "dg", "dst_mailbox": dst_mailbox, "kind": "data",
                  "msg_id": msg_id, "frag": index, "nfrags": count,
                  "total_size": total_size, "src": self.manager.cab.name}
        payload = Payload(size, data=data, header=header)
        yield from self.manager.kernel.compute(SEND_PACKET_CPU_NS)
        yield from self.manager.transmit_payload(dst_cab, payload)
        self.manager.counters["fragments_sent"] += 1

    # ------------------------------------------------------------------

    def accept(self, header: dict[str, Any]) -> bool:
        """Upcall decision: only packets for existing mailboxes."""
        return self.manager.has_mailbox(header.get("dst_mailbox", ""))

    def handle(self, packet: "Packet"):
        """Post-DMA processing (generator, interrupt continuation)."""
        payload = packet.payload
        header = payload.header
        key = (header["src"], header["msg_id"])
        partial = self.reassembly.add_fragment(key, payload,
                                               self.manager.sim.now)
        if partial is None:
            return
        total_size, data = partial.assemble()
        message = Message(src=header["src"],
                          dst_mailbox=header["dst_mailbox"],
                          size=total_size, data=data,
                          kind=header.get("kind", "data"),
                          meta=dict(header.get("meta", {})))
        self.received += 1
        yield from self.manager.deliver_message(
            message, header["dst_mailbox"], reliable=False)
