"""Wire-level units: payloads, HUB commands, packets, and replies.

A Nectar packet on the fiber is a byte stream: an optional prefix of 3-byte
HUB commands (consumed hop by hop), an optional framed data segment
(``start of packet`` … ``end of packet``), and an optional trailing
``close all``.  The simulator carries these as structured
:class:`Packet` objects whose :meth:`Packet.wire_size` reproduces the byte
count the hardware would see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from .hub_commands import CommandOp

if TYPE_CHECKING:  # pragma: no cover
    from .hub import Hub


@dataclass(slots=True)
class Payload:
    """The data segment of a packet.

    ``size`` is what timing is computed from; ``data`` optionally carries
    real bytes so integrity (reassembly) can be verified end-to-end in
    tests.  ``header`` holds transport-layer fields — the model keeps
    them structured rather than serialised, but charges
    ``header_bytes`` of wire size for them.

    ``corrupt`` is the checksum unit's verdict (§5.1): a faulted fiber
    or the fault injector sets it, never the bytes, and the receiving
    transport drops a corrupt payload.  The unit's cost is
    :meth:`~repro.hardware.checksum.ChecksumUnit.cost_ns`.
    """

    size: int
    data: Optional[bytes] = None
    header: dict[str, Any] = field(default_factory=dict)
    corrupt: bool = False

    def __post_init__(self) -> None:
        if self.data is not None and len(self.data) != self.size:
            raise ValueError(
                f"payload size {self.size} != len(data) {len(self.data)}")
        if self.size < 0:
            raise ValueError(f"negative payload size {self.size}")


#: Bytes per HUB command on the wire — "each command is a sequence of
#: three bytes" (§4.2).
COMMAND_BYTES = 3
#: Framing bytes per data packet (start of packet + end of packet).
FRAMING_BYTES = 2
#: Wire bytes charged for the optional argument extension a collective
#: command carries (epoch / combining operand words).  Plain commands
#: stay exactly :data:`COMMAND_BYTES`, so pre-existing timings are
#: untouched.
COLLECTIVE_ARG_BYTES = 8


@dataclass(slots=True)
class HubCommand:
    """One 3-byte HUB command: ``(op, hub, param)`` (§4.2).

    Collective commands (``repro.collectives``) additionally carry a
    small structured ``arg`` — the combining operand, epoch, and tree
    spec — charged as :data:`COLLECTIVE_ARG_BYTES` extension bytes on
    the wire.
    """

    op: CommandOp
    hub_id: str
    param: int = 0
    #: Key of the reply the issuing CAB awaits, stamped by
    #: :meth:`~repro.hardware.cab.CabBoard.expect_reply`; 0 when nobody
    #: waits on a reply keyed by it.
    seq: int = 0
    #: Name of the CAB that issued the command (for reply delivery).
    origin: Optional[str] = None
    #: Collective argument extension (None for ordinary commands).
    arg: Optional[dict] = None

    def wire_bytes(self) -> int:
        """Bytes this command occupies on the fiber."""
        if self.arg is not None:
            return COMMAND_BYTES + COLLECTIVE_ARG_BYTES
        return COMMAND_BYTES

    def __repr__(self) -> str:
        return f"<{self.op.name} {self.hub_id} p={self.param} #{self.seq}>"


@dataclass
class Reply:
    """A HUB's answer to a ``*_reply`` or status command.

    Replies travel backwards over the route the command packet established,
    stealing cycles so they are never blocked (§4.2.1).
    """

    seq: int
    ok: bool
    hub_id: str
    info: dict[str, Any] = field(default_factory=dict)
    wire_size: int = 3


class Packet:
    """A unit of traffic on the Nectar-net.

    ``commands`` is the leading command prefix; each HUB consumes the
    commands addressed to itself and forwards the remainder through the
    connections those commands opened.  ``payload`` is the framed data
    segment (or None for pure command packets).  ``close_after`` appends a
    ``close all`` that tears connections down behind the data (§4.2.1).
    """

    __slots__ = ("commands", "payload", "close_after", "origin",
                 "reverse_path", "header_bytes", "framing_error")

    def __init__(self, origin: str,
                 commands: Optional[list[HubCommand]] = None,
                 payload: Optional[Payload] = None,
                 close_after: bool = False,
                 header_bytes: int = 0) -> None:
        self.commands: list[HubCommand] = list(commands or [])
        self.payload = payload
        self.close_after = close_after
        self.origin = origin
        #: Hops recorded on the way in: list of (hub, input_port_index).
        self.reverse_path: list[tuple["Hub", int]] = []
        #: Transport header bytes charged on the wire with the payload.
        self.header_bytes = header_bytes
        #: Set by a faulted fiber: the receiver discards the packet.
        self.framing_error = False

    @property
    def has_payload(self) -> bool:
        return self.payload is not None

    def wire_size(self) -> int:
        """Bytes this packet occupies on a fiber *from here onward*."""
        size = len(self.commands) * COMMAND_BYTES
        for command in self.commands:
            if command.arg is not None:
                size += COLLECTIVE_ARG_BYTES
        if self.payload is not None:
            size += FRAMING_BYTES + self.header_bytes + self.payload.size
        if self.close_after:
            size += COMMAND_BYTES
        return size

    def record_hop(self, hub: "Hub", in_port: int) -> None:
        self.reverse_path.append((hub, in_port))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = [f"from={self.origin}"]
        if self.commands:
            parts.append(f"cmds={len(self.commands)}")
        if self.payload is not None:
            parts.append(f"data={self.payload.size}B")
        if self.close_after:
            parts.append("close_all")
        return f"<Packet {' '.join(parts)}>"
