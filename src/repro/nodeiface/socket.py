"""CAB-node interface 2: Berkeley-socket style (§6.2.3).

"This interface is less efficient since it involves system call overhead
and data copying on the node.  But the transport protocol overhead is
off-loaded onto the CAB.  This approach allows existing source code to be
used on Nectar with minimal modification."

Send: syscall + user→kernel copy + VME DMA + CAB transport.
Receive: blocking syscall; the CAB interrupts the node on delivery, which
pays interrupt + scheduling + kernel→user copy.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from ..config import POLL_INTERVAL_NS
from ..errors import NodeError
from ..kernel.mailbox import Mailbox
from ..sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..system.builder import CabStack


class SocketInterface:
    """Socket-style message passing between one node and its CAB."""

    def __init__(self, stack: "CabStack") -> None:
        if stack.node is None:
            raise NodeError(f"{stack.name} has no node attached")
        self.stack = stack
        self.node = stack.node
        self.sim = stack.sim
        self.sends = 0
        self.receives = 0
        #: node-side processes blocked in recv(), per mailbox name.
        self._blocked: dict[str, deque[Event]] = {}
        self._pumps: dict[str, object] = {}

    # ------------------------------------------------------------------
    # node-side API (generators run in node processes)
    # ------------------------------------------------------------------

    def send(self, dst_cab: str, dst_mailbox: str,
             data: Optional[bytes] = None, size: Optional[int] = None):
        """``send(2)``: one syscall, one node copy, then a CAB datagram."""
        node = self.node
        body_size = len(data) if size is None else size
        yield from node.syscall_cost()
        yield from node.copy(body_size)          # user → kernel mbuf
        yield from node.vme_write(body_size)     # kernel → CAB memory
        done = self.sim.event()
        self.stack.spawn(self._cab_send(dst_cab, dst_mailbox, data,
                                        body_size, done),
                         name="sock-send")
        yield done
        self.sends += 1

    def _cab_send(self, dst_cab: str, dst_mailbox: str,
                  data: Optional[bytes], size: int, done: Event):
        yield from self.stack.transport.datagram.send(
            dst_cab, dst_mailbox, data=data, size=size)
        done.succeed()

    def receive(self, mailbox: Mailbox):
        """``recv(2)``: blocking syscall; woken by a VME interrupt."""
        node = self.node
        yield from node.syscall_cost()
        self._ensure_pump(mailbox)
        waiter = self.sim.event()
        self._blocked.setdefault(mailbox.name, deque()).append(waiter)
        message = yield waiter
        # The CAB's VME interrupt wakes the kernel, which schedules us.
        yield from node.interrupt_cost()
        yield from node.schedule_cost()
        yield from node.vme_read(message.size)   # CAB memory → kernel
        yield from node.copy(message.size)       # kernel → user buffer
        self.receives += 1
        return message

    # ------------------------------------------------------------------
    # CAB-side delivery pump (one kernel thread per mailbox)
    # ------------------------------------------------------------------

    def _ensure_pump(self, mailbox: Mailbox) -> None:
        if mailbox.name in self._pumps:
            return
        self._pumps[mailbox.name] = self.stack.spawn(
            self._pump_loop(mailbox), name=f"sock-pump:{mailbox.name}")

    def _pump_loop(self, mailbox: Mailbox):
        kernel = self.stack.kernel
        while True:
            message = yield from kernel.wait(mailbox.get())
            queue = self._blocked.get(mailbox.name)
            while not queue:
                # No blocked reader yet: hold the message briefly.
                yield from kernel.sleep(POLL_INTERVAL_NS)
                queue = self._blocked.get(mailbox.name)
            waiter = queue.popleft()
            self.stack.board.vme.interrupt_node()
            waiter.succeed(message)
