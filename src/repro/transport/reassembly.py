"""Fragment reassembly shared by datagram, request-response, the node
driver and IP (§6.2.2)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..hardware.frames import Payload


@dataclass
class PartialMessage:
    """Fragments collected so far for one (source, msg_id)."""

    nfrags: int
    total_size: int
    started_at: int
    fragments: dict[int, Payload] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return len(self.fragments) == self.nfrags

    def add(self, index: int, payload: Payload) -> None:
        # Duplicate fragments (retransmission overlap) overwrite silently.
        self.fragments[index] = payload

    def assemble(self) -> tuple[int, Optional[bytes]]:
        """Total size plus the joined bytes (None for synthetic payloads).

        Fragments carry :class:`memoryview` windows over the sender's
        message (see :func:`repro.transport.base.slice_data`); the single
        join here is the receive path's only copy, and a single-fragment
        message is handed back without any copy at all.
        """
        if self.nfrags == 1:
            data = self.fragments[0].data
            if data is None or type(data) is bytes:
                return self.total_size, data
            return self.total_size, bytes(data)
        chunks = []
        for index in range(self.nfrags):
            payload = self.fragments[index]
            if payload.data is None:
                return self.total_size, None
            chunks.append(payload.data)
        return self.total_size, b"".join(chunks)


class ReassemblyBuffer:
    """Keyed partial-message store with age-based garbage collection.

    A transport message id never recurs, so a fragment that arrives
    after the timeout still completes its own partial.  Where keys recur
    (``keys_recur``: IP's 16-bit identification wraps) a partial past
    the timeout expires even then, and the fragment starts a new one, as
    RFC 791's reassembly timer has it: a stale fragment must not merge
    into the datagram that reuses its id.
    """

    def __init__(self, timeout_ns: int, *, keys_recur: bool = False) -> None:
        self.timeout_ns = timeout_ns
        self.keys_recur = keys_recur
        self._partials: dict[Any, PartialMessage] = {}
        self.expired = 0

    def add_fragment(self, key: Any, payload: Payload,
                     now: int) -> Optional[PartialMessage]:
        """Record a fragment; returns the partial if now complete."""
        header = payload.header
        # Collect stale partials before the lookup, and (unless keys
        # recur) never the key being updated: collecting afterwards could
        # delete the very partial just completed (KeyError on the del
        # below) or silently GC a fragment that would have completed an
        # aging partial.
        self._collect(now, updating=key)
        partial = self._partials.get(key)
        if partial is None:
            partial = PartialMessage(nfrags=header["nfrags"],
                                     total_size=header["total_size"],
                                     started_at=now)
            self._partials[key] = partial
        partial.add(header["frag"], payload)
        if partial.complete:
            del self._partials[key]
            return partial
        return None

    def _collect(self, now: int, updating: Any) -> None:
        stale = [key for key, partial in self._partials.items()
                 if now - partial.started_at > self.timeout_ns
                 and (key != updating or self.keys_recur)]
        for key in stale:
            del self._partials[key]
            self.expired += 1

    def __len__(self) -> int:
        return len(self._partials)
