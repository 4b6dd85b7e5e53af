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

#: Fletcher-16 works modulo 255; the closed form below works modulo 255².
_M = 255
_M2 = _M * _M

#: ``_SUM_INVERSE[(m - 1) % 255]`` is the inverse of ``2 + 255·(m − 1)``
#: modulo 255².  It always exists: the factor is ≡ 2 modulo each of 3, 5
#: and 17, the primes of 255.
_SUM_INVERSE = tuple(pow(2 + _M * k, -1, _M2) for k in range(_M))


def fletcher16(data: bytes) -> int:
    """The checksum the CAB's hardware unit computes (Fletcher-16).

    Closed form of the classic per-byte recurrence ``low += b;
    high += low`` (both mod 255), which over ``m`` bytes ``b₀ … bₘ₋₁``
    unrolls to ``low = S`` and ``high = W + S`` with ``S = Σ bᵢ`` and
    ``W = Σ (m−1−i)·bᵢ``.  Since ``256ᵏ = (1 + 255)ᵏ ≡ 1 + 255·k
    (mod 255²)``, the buffer read as one integer gives both sums at
    once::

        big-endian     A = Σ bᵢ·256^(m−1−i) ≡ S + 255·W
        little-endian  B = Σ bᵢ·256^i       ≡ S + 255·Σ i·bᵢ
        A + B ≡ S·(2 + 255·(m−1))                  (mod 255²)

    so one multiplication by a precomputed inverse isolates ``S`` and
    ``(A − S) / 255`` is ``W`` mod 255.  ``int.from_bytes`` and ``%`` by
    a one-digit modulus are linear C passes, so no Python-level work is
    done per byte.  Any contiguous byte buffer is accepted.  Checksums
    are bit-identical to the per-byte form — pinned by differential and
    property tests against the reference loop in
    ``tests/test_properties.py``.
    """
    length = len(data)
    if not length:
        return 0
    big = int.from_bytes(data, "big") % _M2
    total = ((big + int.from_bytes(data, "little") % _M2)
             * _SUM_INVERSE[(length - 1) % _M]) % _M2
    weighted = (big - total) % _M2 // _M
    return ((weighted + total) % _M) << 8 | total % _M


@dataclass(slots=True)
class Payload:
    """The data segment of a packet.

    ``size`` is what timing is computed from; ``data`` optionally carries
    real bytes so integrity (checksums, reassembly) can be verified
    end-to-end in tests.  ``header`` holds transport-layer fields — the
    model keeps them structured rather than serialised, but charges
    ``header_bytes`` of wire size for them.

    A sealed payload's checksum is computed only when something reads
    it: ``size``/``data`` are fixed after construction and fault
    injection flips ``corrupt``, never the bytes, so the value the
    send-side DMA would attach always matches the bytes and only the
    ``corrupt`` flag decides a verify.
    """

    size: int
    data: Optional[bytes] = None
    header: dict[str, Any] = field(default_factory=dict)
    sealed: bool = False
    corrupt: bool = False
    _checksum: Optional[int] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.data is not None and len(self.data) != self.size:
            raise ValueError(
                f"payload size {self.size} != len(data) {len(self.data)}")
        if self.size < 0:
            raise ValueError(f"negative payload size {self.size}")

    def seal(self) -> "Payload":
        """Attach the checksum (as the send-side DMA would)."""
        self.sealed = True
        return self

    @property
    def checksum(self) -> Optional[int]:
        """Fletcher-16 of ``data`` (of the size for synthetic payloads,
        so they have one too); ``None`` until sealed, memoized after."""
        if not self.sealed:
            return None
        if self._checksum is None:
            self._checksum = fletcher16(
                self.size.to_bytes(8, "little") if self.data is None
                else self.data)
        return self._checksum

    def verify_checksum(self) -> bool:
        """True if the payload is intact (fails when fault injection hit)."""
        return not self.corrupt


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
