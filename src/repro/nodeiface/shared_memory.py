"""CAB-node interface 1: mapped shared memory (§6.2.3).

"The most efficient CAB-node interface is based on shared memory: the CAB
memory is mapped into the address space of the node process, and the node
process builds or consumes messages in place in CAB memory.  Node
processes invoke services by placing a command in a special mailbox on
the CAB. ... Messages are received by polling CAB memory."

No system calls, no node-side copies beyond the VME transfer itself, no
interrupts — the price is polling.

This interface also implements the "packet pipeline" of §6.2.2: for large
messages the VME transfer of piece *k+1* overlaps the fiber transmission
of piece *k*; the CABs at both ends synchronise the DMAs and manage the
buffers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..config import MAILBOX_COMMAND_NS, POLL_INTERVAL_NS
from ..errors import NodeError
from ..kernel.mailbox import Mailbox, Message
from ..transport.base import message_size, slice_data

if TYPE_CHECKING:  # pragma: no cover
    from ..system.builder import CabStack

#: Bytes of a command descriptor in the special mailbox.
COMMAND_BYTES = 16
#: Bytes read from CAB memory per poll (a status word).
POLL_BYTES = 4


class SharedMemoryInterface:
    """Shared-memory message passing between one node and its CAB."""

    def __init__(self, stack: "CabStack") -> None:
        if stack.node is None:
            raise NodeError(f"{stack.name} has no node attached")
        self.stack = stack
        self.node = stack.node
        self.sim = stack.sim
        #: The special command mailbox node processes drop requests into.
        self.command_mailbox = Mailbox(stack.kernel,
                                       f"{stack.name}.cmd", 128)
        stack.spawn(self._dispatch_loop(), name="shm-dispatch")

    # ------------------------------------------------------------------
    # node-side operations (generators run in node processes)
    # ------------------------------------------------------------------

    def send(self, dst_cab: str, dst_mailbox: str,
             data: Optional[bytes] = None, size: Optional[int] = None,
             pipeline: bool = True):
        """Send one message built in place in CAB memory.

        With ``pipeline=True`` (default) the message crosses VME in ≤1 KB
        pieces, each handed to the CAB as soon as it lands so fiber and
        VME transfers overlap.  With ``pipeline=False`` the whole body is
        copied first (the ablation baseline for E16).  Returns once the
        CAB has transmitted everything.
        """
        node = self.node
        body_size = message_size(data, size)
        yield from node.compute(MAILBOX_COMMAND_NS)
        done = self.sim.event()
        max_piece = self.stack.system.cfg.transport.max_payload_bytes
        if pipeline:
            pieces = slice_data(data, body_size, max_piece)
        else:
            yield from node.vme_write(body_size)
            pieces = [(body_size, data)]
        msg_id = self.stack.transport.next_message_id()
        count = len(pieces)
        for index, (piece_size, chunk) in enumerate(pieces):
            if pipeline and piece_size:
                yield from node.vme_write(piece_size)
            yield from self._post_command(Message(
                src=node.name, dst_mailbox=self.command_mailbox.name,
                size=0, kind="send_piece",
                meta={"dst_cab": dst_cab, "dst_mailbox": dst_mailbox,
                      "data": chunk, "size": piece_size, "msg_id": msg_id,
                      "index": index, "count": count, "total": body_size,
                      "done": done if index == count - 1 else None}))
        yield done

    def _post_command(self, command: Message):
        """Write a command descriptor into the CAB command mailbox."""
        yield from self.node.vme_write(COMMAND_BYTES)
        yield self.command_mailbox.put(command)

    def receive(self, mailbox: Mailbox):
        """Poll CAB memory until a message lands in ``mailbox``.

        Consumes the message in place: only its body crosses VME, and no
        node syscalls or interrupts are involved.
        """
        node = self.node
        while True:
            # One poll: read the mailbox status word over VME.
            yield from node.vme_read(POLL_BYTES)
            message = mailbox.try_get()
            if message is not None:
                yield from node.vme_read(message.size)
                yield from node.compute(MAILBOX_COMMAND_NS)
                return message
            yield POLL_INTERVAL_NS

    # ------------------------------------------------------------------
    # CAB-side dispatcher thread
    # ------------------------------------------------------------------

    def _dispatch_loop(self):
        """Serve the special command mailbox (a CAB kernel thread)."""
        kernel = self.stack.kernel
        datagram = self.stack.transport.datagram
        while True:
            command = yield from kernel.wait(self.command_mailbox.get())
            if command.kind != "send_piece":
                raise NodeError(f"unknown shm command {command.kind!r}")
            meta = command.meta
            yield from datagram.send_piece(
                meta["dst_cab"], meta["dst_mailbox"], meta["data"],
                meta["size"], meta["msg_id"], meta["index"],
                meta["count"], meta["total"])
            if meta["done"] is not None:
                meta["done"].succeed()
