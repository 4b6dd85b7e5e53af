"""The CAB kernel: threads, mailboxes, timers, node services (§6.1)."""

from .mailbox import Mailbox, Message
from .services import NodeServices, ServiceRequest
from .threads import CabKernel, CabThread

__all__ = [
    "CabKernel",
    "CabThread",
    "Mailbox",
    "Message",
    "NodeServices",
    "ServiceRequest",
]
