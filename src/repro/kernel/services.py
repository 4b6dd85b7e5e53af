"""Node services: the CAB's escape hatch for complicated operations (§6.1).

"The CAB kernel relies on the node operating system for more complicated
operations such as file I/O.  The CAB invokes these services by
interrupting the node over the VME bus."  Requests carry a service name
and a fixed-size argument descriptor; the node runs a registered handler
(paying its own OS costs) and completes the request.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import NodeError
from ..sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.node import NodeHost
    from .threads import CabKernel

#: Bytes of the request descriptor pushed over VME before the interrupt.
REQUEST_BYTES = 64


@dataclass
class ServiceRequest:
    """One outstanding CAB → node service request."""

    service: str
    args: Any
    request_id: int
    completed: Optional[Event] = None


class NodeServices:
    """CAB-side stub + node-side dispatcher for kernel service calls."""

    def __init__(self, kernel: "CabKernel") -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        self.node: Optional["NodeHost"] = None
        self._handlers: dict[str, Callable[..., Any]] = {}
        self._pending: dict[int, ServiceRequest] = {}
        self._request_ids = count(1)
        self.requests_served = 0

    def attach_node(self, node: "NodeHost") -> None:
        self.node = node
        self.kernel.cab.vme.on_node_interrupt(self._node_interrupt)

    def register(self, service: str, handler: Callable[..., Any]) -> None:
        """Node side: register ``handler(args)`` (a generator returning the
        result) for ``service``."""
        self._handlers[service] = handler

    def request(self, service: str, args: Any = None):
        """CAB thread side: invoke a node service (generator).

        Interrupts the node over VME; the node pays interrupt + scheduling
        costs, runs the handler, and completes the request.  Returns the
        handler's result.
        """
        if self.node is None:
            raise NodeError("no node attached for kernel services")
        req = ServiceRequest(service, args, next(self._request_ids),
                             self.sim.event())
        self._pending[req.request_id] = req
        # Push the request descriptor over VME, then interrupt the node.
        yield from self.kernel.cab.vme.transfer(REQUEST_BYTES)
        self.kernel.cab.vme.interrupt_node(req.request_id)
        outcome = yield from self.kernel.wait(req.completed)
        return outcome

    def _node_interrupt(self, request_id: int) -> None:
        req = self._pending.pop(request_id, None)
        if req is None:
            return
        self.sim.process(self._node_serve(req),
                         name=f"{self.node.name}.svc.{req.service}")

    def _node_serve(self, req: ServiceRequest):
        node = self.node
        handler = self._handlers.get(req.service)
        yield from node.interrupt_cost()
        yield from node.schedule_cost()
        if handler is None:
            req.completed.fail(NodeError(f"unknown service {req.service!r}"))
            return
        result = yield from handler(req.args)
        self.requests_served += 1
        req.completed.succeed(result)
