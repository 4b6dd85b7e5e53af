"""Nectarine: the Nectar programming interface (§6.3).

"Nectarine presents the programmer with a simple communication
abstraction: applications consist of tasks that communicate by
transferring messages between user-specified buffers.  Tasks are
processes on any CAB or node.  Messages can be located in any memory."

Nectarine hides much of the heterogeneity but not the performance
consequences of placement: a message in CAB memory is sent directly by
the CAB; a message in node memory first crosses the VME bus.  Copy
operations are minimised and DMA used whenever possible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, Union

from ..config import POLL_INTERVAL_NS
from ..errors import NectarineError
from ..hardware.memory import MemoryBlock
from ..hardware.node import NodeHost
from ..kernel.mailbox import Mailbox, Message
from ..nodeiface.shared_memory import SharedMemoryInterface

if TYPE_CHECKING:  # pragma: no cover
    from ..system.builder import CabStack, NectarSystem


class Buffer:
    """A user-specified message buffer in CAB or node memory (§6.3)."""

    def __init__(self, runtime: "NectarineRuntime", size: int,
                 location: Union["CabStack", NodeHost]) -> None:
        self.runtime = runtime
        self.size = size
        #: Contents, set by :meth:`fill` (``None`` sends ``size`` bytes
        #: of unspecified data).
        self.data: Optional[bytes] = None
        self.location = location
        self.block: Optional[MemoryBlock] = None
        if self.in_cab_memory:
            # Real allocation in the CAB's data memory; placement has
            # performance consequences and capacity limits (§6.3).
            self.block = location.board.data_memory.alloc(max(size, 1))

    @property
    def in_cab_memory(self) -> bool:
        from ..system.builder import CabStack
        return isinstance(self.location, CabStack)

    def fill(self, data: bytes) -> None:
        if len(data) != self.size:
            raise NectarineError(
                f"fill of {len(data)} B into a {self.size} B buffer")
        self.data = data

    def release(self) -> None:
        if self.block is not None and not self.block.freed:
            self.block.region.free(self.block)
            self.block = None


class Task:
    """A Nectarine task: a process on a CAB or on a node (§6.3)."""

    def __init__(self, runtime: "NectarineRuntime", name: str,
                 location: Union["CabStack", NodeHost]) -> None:
        self.runtime = runtime
        self.name = name
        self.location = location
        self.cab = runtime._cab_of(location)
        self.mailbox: Mailbox = self.cab.create_mailbox(f"task:{name}")
        self._shm: Optional[SharedMemoryInterface] = None
        if not self.on_cab:
            self._shm = runtime._shm_for(self.cab)
        self._streams: dict[str, Any] = {}
        self.body = None

    @property
    def on_cab(self) -> bool:
        from ..system.builder import CabStack
        return isinstance(self.location, CabStack)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self, body: Callable[["Task"], Generator]) -> None:
        """Run ``body(self)`` as this task's process."""
        generator = body(self)
        if self.on_cab:
            self.body = self.location.spawn(generator, name=self.name)
        else:
            self.body = self.location.run(generator, name=self.name)

    # ------------------------------------------------------------------
    # communication (generators, run inside the task body)
    # ------------------------------------------------------------------

    def send(self, dst: "Task", buffer: Union[Buffer, bytes, int],
             protocol: str = "datagram"):
        """Send a buffer to another task.

        The path is chosen from the buffer's placement (§6.3): CAB-memory
        buffers go straight to the transport; node-memory buffers cross
        VME through the shared-memory interface first.
        """
        data, size, in_cab = self._resolve(buffer)
        if protocol not in ("datagram", "stream"):
            raise NectarineError(f"unknown protocol {protocol!r}")
        if self.on_cab or in_cab:
            if protocol == "datagram":
                yield from self.cab.transport.datagram.send(
                    dst.cab.name, dst.mailbox.name, data=data, size=size,
                    meta={"from_task": self.name})
            else:
                connection = self._stream_to(dst)
                yield from connection.send(data=data, size=size)
        else:
            # Node-resident buffer: shared-memory interface (pipelined).
            yield from self._shm.send(dst.cab.name, dst.mailbox.name,
                                      data=data, size=size)

    def receive(self):
        """Receive the next message addressed to this task."""
        if self.on_cab:
            message = yield from self.location.kernel.wait(
                self.mailbox.get())
        else:
            message = yield from self._shm.receive(self.mailbox)
        return message

    def receive_match(self, predicate: Callable[[Message], bool]):
        """Out-of-order receive (mailbox predicate match)."""
        if self.on_cab:
            message = yield from self.location.kernel.wait(
                self.mailbox.get_match(predicate))
            return message
        node = self.location
        while True:
            yield from node.vme_read(4)
            candidates = [m for m in self.mailbox.messages if predicate(m)]
            if candidates:
                self.mailbox.messages.remove(candidates[0])
                self.mailbox._consume(candidates[0])
                yield from node.vme_read(candidates[0].size)
                return candidates[0]
            yield POLL_INTERVAL_NS

    def request(self, dst: "Task", buffer: Union[Buffer, bytes, int]):
        """RPC to a server task (request-response protocol, §6.2.2),
        each attempt timed by the peer's adaptive RTO."""
        data, size, _in_cab = self._resolve(buffer)
        response = yield from self.cab.transport.rpc.request(
            dst.cab.name, dst.mailbox.name, data=data, size=size)
        return response

    def respond(self, request: Message,
                buffer: Union[Buffer, bytes, int]):
        """Answer an RPC request received by this (server) task."""
        data, size, _in_cab = self._resolve(buffer)
        yield from self.cab.transport.rpc.respond(request, data=data,
                                                  size=size)

    def _stream_to(self, dst: "Task"):
        key = dst.name
        if key not in self._streams:
            self._streams[key] = self.cab.transport.stream.connect(
                dst.cab.name, dst.mailbox.name)
        return self._streams[key]

    def _resolve(self, buffer: Union[Buffer, bytes, int]):
        if isinstance(buffer, Buffer):
            return buffer.data, buffer.size, buffer.in_cab_memory
        if isinstance(buffer, (bytes, bytearray)):
            return bytes(buffer), len(buffer), self.on_cab
        if isinstance(buffer, int):
            return None, buffer, self.on_cab
        raise NectarineError(f"cannot send {type(buffer).__name__}")


class NectarineRuntime:
    """Factory and registry for tasks and buffers on one system."""

    def __init__(self, system: "NectarSystem") -> None:
        self.system = system
        self.tasks: dict[str, Task] = {}
        self._shms: dict[str, SharedMemoryInterface] = {}

    def create_task(self, name: str,
                    location: Union["CabStack", NodeHost]) -> Task:
        if name in self.tasks:
            raise NectarineError(f"duplicate task name {name!r}")
        task = Task(self, name, location)
        self.tasks[name] = task
        return task

    def alloc_buffer(self, location: Union["CabStack", NodeHost],
                     size: int) -> Buffer:
        return Buffer(self, size, location)

    # ------------------------------------------------------------------

    def _cab_of(self, location) -> "CabStack":
        from ..system.builder import CabStack
        if isinstance(location, CabStack):
            return location
        if isinstance(location, NodeHost):
            if location.cab is None:
                raise NectarineError(f"node {location.name} has no CAB")
            return self.system.cab(location.cab.name)
        raise NectarineError(
            f"tasks live on CABs or nodes, not {type(location).__name__}")

    def _shm_for(self, cab: "CabStack") -> SharedMemoryInterface:
        if cab.name not in self._shms:
            self._shms[cab.name] = SharedMemoryInterface(cab)
        return self._shms[cab.name]
