"""The request-response protocol (§6.2.2).

"The request-response protocol supports client-server interactions such
as remote procedure calls."  Requests are retransmitted until a response
(or the retry budget) arrives; servers keep a response cache so duplicate
requests are answered without re-executing — at-most-once execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Any, Optional

from ..config import RELIABILITY_CPU_NS, WAKEUP_NS
from ..errors import TransportError
from ..kernel.mailbox import Message
from ..sim import Event
from .base import message_size
from .reassembly import ReassemblyBuffer

__all__ = ["RequestResponseProtocol"]

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.frames import Packet
    from .base import TransportManager

#: Server-side response cache entries kept (duplicate suppression).
RESPONSE_CACHE_LIMIT = 256

_IN_PROGRESS = object()


@dataclass
class _PendingRequest:
    """Client-side state of one outstanding request."""

    request_id: int
    response: Event
    retransmits: int = 0


class RequestResponseProtocol:
    """RPC-style exchange between a client thread and a server mailbox."""

    protos = ("rr_req", "rr_rsp")

    def __init__(self, manager: "TransportManager") -> None:
        self.manager = manager
        # Per-protocol so back-to-back simulations allocate identical ids.
        self._request_ids = count(1)
        self._pending: dict[int, _PendingRequest] = {}
        self.reassembly = ReassemblyBuffer(
            manager.cfg.transport.reassembly_timeout_ns)
        #: (client, request_id) -> cached response (or in-progress marker).
        self._served: dict[tuple[str, int], Any] = {}
        self.requests_sent = 0
        self.duplicate_requests = 0
        #: Aggregate request retransmissions (per-request counts live in
        #: the pending-request records; this survives their cleanup).
        self.retransmits = 0

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------

    def request(self, dst_cab: str, service_mailbox: str,
                data: Optional[bytes] = None, size: Optional[int] = None,
                timeout_ns: Optional[int] = None,
                max_retries: Optional[int] = None):
        """Issue a request and wait for the response (generator).

        Returns the response :class:`~repro.kernel.mailbox.Message`.
        Raises :class:`TransportError` after the retry budget, or
        immediately when ``dst_cab``'s circuit breaker is open.

        With ``timeout_ns=None`` (the default) each attempt waits the
        peer's current Jacobson/Karn RTO, doubling with jitter after
        every timeout; an explicit ``timeout_ns`` pins a fixed
        per-attempt deadline.
        """
        cfg = self.manager.cfg.transport
        # An explicit 0 used to be silently replaced by the default
        # (falsy-zero `or`); both knobs are validated loudly instead.
        if timeout_ns is not None and timeout_ns <= 0:
            raise TransportError(
                f"request timeout must be positive, got {timeout_ns}")
        if max_retries is None:
            max_retries = cfg.max_retransmits
        elif max_retries < 0:
            raise TransportError(
                f"max_retries must be >= 0, got {max_retries}")
        self.manager.check_peer(dst_cab)
        estimator = self.manager.rto_for(dst_cab) \
            if timeout_ns is None else None
        request_id = next(self._request_ids)
        pending = _PendingRequest(request_id, Event(self.manager.sim))
        self._pending[request_id] = pending
        body_size = message_size(data, size)
        header = {"proto": "rr_req", "dst_mailbox": service_mailbox,
                  "req_id": request_id}
        first_sent_ns = self.manager.sim.now
        try:
            attempt = 0
            while True:
                attempt += 1
                self.requests_sent += 1
                if attempt == 1:
                    first_sent_ns = self.manager.sim.now
                yield from self.manager.send_fragments(
                    dst_cab, dict(header), data, body_size,
                    extra_cpu_ns=RELIABILITY_CPU_NS)
                wait_ns = timeout_ns if estimator is None \
                    else estimator.current_rto_ns()
                deadline = self.manager.sim.timeout(wait_ns)
                result = yield self.manager.sim.any_of(
                    [pending.response, deadline])
                yield from self.manager.kernel.compute(WAKEUP_NS)
                if pending.response in result:
                    if estimator is not None:
                        if pending.retransmits == 0:
                            # Karn's rule: only un-retransmitted
                            # exchanges give unambiguous RTT samples.
                            estimator.on_sample(
                                self.manager.sim.now - first_sent_ns)
                        else:
                            estimator.on_success()
                    self.manager.peer_success(dst_cab)
                    return pending.response.value
                if attempt > max_retries:
                    # The final attempt fails without retransmitting, so
                    # it must not inflate the retransmit counters.
                    self.manager.peer_failure(dst_cab)
                    raise TransportError(
                        f"request {request_id} to {dst_cab}/"
                        f"{service_mailbox}: no response after "
                        f"{attempt} attempts")
                if estimator is not None:
                    estimator.on_timeout()
                pending.retransmits += 1
                self.retransmits += 1
        finally:
            self._pending.pop(request_id, None)

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------

    def respond(self, request: Message,
                data: Optional[bytes] = None, size: Optional[int] = None):
        """Send the response for a request message (generator).

        The response is cached so that a retransmitted duplicate of the
        same request is answered without re-running the server.
        """
        meta = request.meta
        client = meta["reply_to"]
        request_id = meta["req_id"]
        body_size = message_size(data, size)
        self._cache_response(client, request_id, (data, body_size))
        header = {"proto": "rr_rsp", "req_id": request_id}
        yield from self.manager.send_fragments(
            client, header, data, body_size,
            extra_cpu_ns=RELIABILITY_CPU_NS)

    def _cache_response(self, client: str, request_id: int,
                        response: Any) -> None:
        self._served[(client, request_id)] = response
        if len(self._served) <= RESPONSE_CACHE_LIMIT:
            return
        # Evict oldest *completed* entries only: dropping an in-progress
        # marker would let a duplicate request re-execute the server,
        # breaking at-most-once semantics.
        for key in list(self._served):
            if len(self._served) <= RESPONSE_CACHE_LIMIT:
                break
            if self._served[key] is _IN_PROGRESS:
                continue
            del self._served[key]

    # ------------------------------------------------------------------
    # packet handling
    # ------------------------------------------------------------------

    def accept(self, header: dict[str, Any]) -> bool:
        if header["proto"] == "rr_rsp":
            return True
        return self.manager.has_mailbox(header.get("dst_mailbox", ""))

    def handle(self, packet: "Packet"):
        header = packet.payload.header
        if header["proto"] == "rr_req":
            yield from self._handle_request(packet)
        else:
            yield from self._handle_response(packet)

    def _handle_request(self, packet: "Packet"):
        payload = packet.payload
        header = payload.header
        client = header["src"]
        request_id = header["req_id"]
        key = (client, request_id)
        cached = self._served.get(key)
        if cached is _IN_PROGRESS:
            self.duplicate_requests += 1
            return
        if cached is not None:
            # At-most-once: replay the cached response, do not re-execute.
            self.duplicate_requests += 1
            data, body_size = cached
            replay = {"proto": "rr_rsp", "req_id": request_id}
            yield from self.manager.send_fragments(
                client, replay, data, body_size)
            return
        partial = self.reassembly.add_fragment(
            ("req",) + key, payload, self.manager.sim.now)
        if partial is None:
            return
        self._served[key] = _IN_PROGRESS
        total_size, data = partial.assemble()
        message = Message(src=client, dst_mailbox=header["dst_mailbox"],
                          size=total_size, data=data, kind="request",
                          meta={"req_id": request_id, "reply_to": client})
        yield from self.manager.deliver_message(
            message, header["dst_mailbox"], reliable=True)

    def _handle_response(self, packet: "Packet"):
        payload = packet.payload
        header = payload.header
        request_id = header["req_id"]
        pending = self._pending.get(request_id)
        if pending is None:
            return
        partial = self.reassembly.add_fragment(
            ("rsp", header["src"], request_id), payload,
            self.manager.sim.now)
        if partial is None:
            return
        total_size, data = partial.assemble()
        message = Message(src=header["src"], dst_mailbox="",
                          size=total_size, data=data, kind="response",
                          meta={"req_id": request_id})
        if not pending.response.triggered:
            pending.response.succeed(message)
        yield from self.manager.kernel.wakeup_cost()
