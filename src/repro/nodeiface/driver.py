"""CAB-node interface 3: the UNIX network driver (§6.2.3).

"In this case, Nectar is used as a 'dumb' network and all transport
protocol processing is performed on the node.  The advantage of this
approach is binary compatibility for current applications."

The CAB degenerates to a network interface: it relays raw packets between
the fiber and node memory.  The node pays per-packet interrupts and
in-kernel protocol processing — which is exactly why this path is slow
and why off-loading (interfaces 1 and 2) wins.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..config import MAX_PAYLOAD_BYTES
from ..errors import NodeError
from ..hardware.frames import Packet, Payload
from ..sim import Store
from ..transport.base import message_size, slice_data
from ..transport.reassembly import ReassemblyBuffer

if TYPE_CHECKING:  # pragma: no cover
    from ..system.builder import CabStack


class NetworkDriverInterface:
    """The 'dumb network' interface: node-resident protocol stack."""

    protos = ("nd",)

    def __init__(self, stack: "CabStack") -> None:
        if stack.node is None:
            raise NodeError(f"{stack.name} has no node attached")
        self.stack = stack
        self.node = stack.node
        self.sim = stack.sim
        #: Completed messages awaiting node processes, per port name.
        self._sockets: dict[str, Store] = {}
        self.reassembly = ReassemblyBuffer(
            stack.system.cfg.transport.reassembly_timeout_ns)
        # Register as a raw protocol with the CAB transport so inbound
        # 'nd' packets reach us.
        stack.transport.register_protocol(self)

    # ------------------------------------------------------------------
    # node-side API
    # ------------------------------------------------------------------

    def open_port(self, port: str) -> Store:
        """Bind a node-side endpoint (like a socket on the dumb net)."""
        if port in self._sockets:
            raise NodeError(f"port {port!r} already open on {self.node.name}")
        self._sockets[port] = Store(self.sim)
        return self._sockets[port]

    def send(self, dst_cab: str, dst_port: str,
             data: Optional[bytes] = None, size: Optional[int] = None):
        """Node-resident transport send: per-packet kernel processing.

        Every packet costs a syscall share, the in-kernel protocol path,
        a node copy and the VME transfer, before the CAB relays it.
        """
        node = self.node
        body_size = message_size(data, size)
        fragments = slice_data(data, body_size, MAX_PAYLOAD_BYTES)
        msg_id = self.stack.transport.next_message_id()
        yield from node.syscall_cost()
        for index, (frag_size, chunk) in enumerate(fragments):
            yield from node.kernel_protocol_cost()
            yield from node.copy(frag_size)
            yield from node.vme_write(frag_size)
            header = {"proto": "nd", "dst_port": dst_port, "msg_id": msg_id,
                      "frag": index, "nfrags": len(fragments),
                      "total_size": body_size,
                      "src": self.stack.board.name,
                      "src_node": node.name}
            payload = Payload(frag_size, data=chunk, header=header)
            # The CAB relays the raw packet with minimal handling.
            yield from self.stack.datalink.send(dst_cab, payload,
                                                mode="auto")

    def receive(self, port: str):
        """Blocking read of the next complete message on ``port``."""
        node = self.node
        store = self._sockets.get(port)
        if store is None:
            raise NodeError(f"port {port!r} not open on {node.name}")
        yield from node.syscall_cost()
        message = yield store.get()
        yield from node.schedule_cost()
        yield from node.copy(message["size"])    # kernel → user
        return message

    # ------------------------------------------------------------------
    # CAB-side protocol hooks (the CAB is a dumb NIC here)
    # ------------------------------------------------------------------

    def accept(self, header: dict[str, Any]) -> bool:
        return header.get("dst_port") in self._sockets

    def handle(self, packet: Packet):
        """Relay one inbound packet to the node (interrupt per packet)."""
        payload = packet.payload
        # CAB → node memory, then the per-packet interrupt (§3.1: "the
        # network interface burdens the node with interrupt handling and
        # header processing for each packet").
        yield from self.stack.board.dma.vme_transfer(payload.size,
                                                     to_cab=False)
        self.stack.board.vme.interrupt_node()
        self.sim.process(self._node_packet(payload),
                         name=f"{self.node.name}.nd-rx")

    def _node_packet(self, payload: Payload):
        node = self.node
        header = payload.header
        yield from node.interrupt_cost()
        yield from node.kernel_protocol_cost()
        key = (header["src"], header["msg_id"])
        partial = self.reassembly.add_fragment(key, payload, self.sim.now)
        if partial is None:
            return
        total_size, data = partial.assemble()
        store = self._sockets.get(header["dst_port"])
        if store is None:
            return
        store.put({"src": header["src"], "src_node": header.get("src_node"),
                   "size": total_size, "data": data})
