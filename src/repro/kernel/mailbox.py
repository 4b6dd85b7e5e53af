"""Mailboxes: the CAB kernel's message buffer abstraction (§6.1).

"In the common single-reader, single-writer case, allocating and
reclaiming space is simple because mailboxes behave like FIFOs.
Mailboxes also support multiple readers, multiple writers, and
out-of-order reads" — e.g. multiple servers operating on different
messages in the same mailbox.

A mailbox owns buffer space in CAB data memory: each queued message holds
a :class:`~repro.hardware.memory.MemoryBlock` until consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..config import MAILBOX_CAPACITY
from ..errors import MailboxError
from ..sim import Event

__all__ = ["Message", "Mailbox"]

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.memory import MemoryBlock
    from .threads import CabKernel


@dataclass
class Message:
    """A message in transit between tasks."""

    src: str
    dst_mailbox: str
    size: int
    data: Optional[bytes] = None
    kind: str = "data"
    meta: dict[str, Any] = field(default_factory=dict)
    block: Optional["MemoryBlock"] = None


class Mailbox:
    """A named kernel mailbox backed by CAB data memory.

    ``capacity_messages`` defaults to :data:`~repro.config.MAILBOX_CAPACITY`;
    below 1 it is a :class:`MailboxError` (a mailbox that is always full
    would block every writer).
    """

    def __init__(self, kernel: "CabKernel", name: str,
                 capacity_messages: Optional[int] = None) -> None:
        if capacity_messages is None:
            capacity_messages = MAILBOX_CAPACITY
        elif capacity_messages < 1:
            raise MailboxError(
                f"mailbox {name} capacity must be >= 1 message, "
                f"got {capacity_messages}")
        self.kernel = kernel
        self.sim = kernel.sim
        self.name = name
        self.capacity = capacity_messages
        self.region = kernel.cab.data_memory
        self.messages: list[Message] = []
        self._readers: list[tuple[Optional[Callable[[Message], bool]],
                                  Event]] = []
        #: Blocked writers; the event is None for a ``try_put`` whose
        #: caller only wanted the yes/no answer.
        self._writers: list[tuple[Message, Optional[Event]]] = []
        self.closed = False
        self.enqueued = 0
        self.peak_depth = 0

    def __len__(self) -> int:
        return len(self.messages)

    @property
    def is_full(self) -> bool:
        return len(self.messages) >= self.capacity

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def put(self, message: Message) -> Event:
        """Queue a message; the event fires once space was available.

        Buffer space for the message body is allocated from the mailbox's
        memory region and held until a reader consumes the message.
        """
        if self.closed:
            raise MailboxError(f"mailbox {self.name} is closed")
        event = self.sim.event()
        self._writers.append((message, event))
        self._service()
        return event

    def try_put(self, message: Message) -> bool:
        """Non-blocking put; False if the mailbox is full."""
        if self.closed:
            raise MailboxError(f"mailbox {self.name} is closed")
        if self.is_full or self._writers:
            return False
        self._writers.append((message, None))
        self._service()
        return True

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def get(self) -> Event:
        """FIFO read: event fires with the oldest message."""
        return self._read(None)

    def get_match(self, predicate: Callable[[Message], bool]) -> Event:
        """Out-of-order read: the oldest message satisfying ``predicate``."""
        return self._read(predicate)

    def _read(self, predicate: Optional[Callable[[Message], bool]]) -> Event:
        if self.closed and not self.messages:
            raise MailboxError(f"mailbox {self.name} is closed and empty")
        event = self.sim.event()
        self._readers.append((predicate, event))
        self._service()
        return event

    def try_get(self) -> Optional[Message]:
        """Non-blocking FIFO read; None if empty."""
        if self.messages and not self._readers:
            message = self.messages.pop(0)
            self._consume(message)
            self._service()
            return message
        return None

    def cancel_read(self, event: Event) -> bool:
        """Withdraw a pending ``get``/``get_match`` (timed-out reader).

        Returns False if the read already completed — the caller then owns
        the message in ``event.value`` and must not drop it.
        """
        for entry in self._readers:
            if entry[1] is event:
                self._readers.remove(entry)
                return True
        return False

    def peek(self) -> Optional[Message]:
        return self.messages[0] if self.messages else None

    def register_metrics(self, sampler) -> None:
        """Sample this mailbox's queue depth and cumulative throughput."""
        base = f"{self.kernel.cab.name}.mbox.{self.name}"
        sampler.add_probe(
            f"{base}.depth", lambda: float(len(self.messages)),
            description="messages queued in the mailbox", unit="messages")
        sampler.add_probe(
            f"{base}.enqueued", lambda: float(self.enqueued),
            description="cumulative messages accepted", unit="messages")

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the mailbox: pending and future reads on empty fail."""
        self.closed = True
        for message, event in self._writers:
            if event is not None:
                event.fail(MailboxError(f"mailbox {self.name} closed"))
        self._writers.clear()
        if not self.messages:
            for _predicate, event in self._readers:
                event.fail(MailboxError(f"mailbox {self.name} closed"))
            self._readers.clear()

    def _service(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Admit queued writers while capacity and memory allow.
            while self._writers and not self.is_full:
                message, event = self._writers[0]
                if message.block is None and message.size > 0:
                    if message.size > self.region.free_bytes:
                        # Wait for buffer space; retry when memory frees.
                        self.region.notify_on_free(self._service)
                        break
                    message.block = self.region.alloc(message.size)
                self._writers.pop(0)
                self.messages.append(message)
                self.enqueued += 1
                self.peak_depth = max(self.peak_depth, len(self.messages))
                if event is not None:
                    event.succeed(message)
                progressed = True
            # Satisfy readers (respecting out-of-order predicates).
            for index, (predicate, event) in enumerate(list(self._readers)):
                message = self._first_matching(predicate)
                if message is None:
                    continue
                self._readers.remove((predicate, event))
                self.messages.remove(message)
                self._consume(message)
                event.succeed(message)
                progressed = True
                break

    def _first_matching(self, predicate) -> Optional[Message]:
        for message in self.messages:
            if predicate is None or predicate(message):
                return message
        return None

    def _consume(self, message: Message) -> None:
        if message.block is not None and not message.block.freed:
            self.region.free(message.block)
            message.block = None
