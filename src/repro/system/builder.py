"""Whole-system assembly: HUBs, CABs, nodes, fibers, software (§3.1).

:class:`NectarSystem` is the top-level object users create.  Adding a CAB
wires the fiber pair, instantiates the CAB kernel, datalink and transport
layers, and registers the attachment with the router; adding a node
attaches it over VME.  Figure 1's picture — nodes, CABs, Nectar-net — maps
one-to-one onto this class.
"""

from __future__ import annotations

from itertools import count
from typing import Optional

from ..config import NectarConfig
from ..datalink.protocol import Datalink
from ..datalink.routing import Router
from ..errors import TopologyError
from ..hardware.cab import CabBoard
from ..hardware.hub import Hub
from ..hardware.node import NodeHost
from ..hardware.wiring import wire_cab_to_hub, wire_hub_to_hub
from ..kernel.services import NodeServices
from ..kernel.threads import CabKernel
from ..sim import Simulator, Tracer
from ..transport.base import TransportManager

__all__ = ["CabStack", "NectarSystem"]


class CabStack:
    """A CAB board plus its full software stack."""

    def __init__(self, system: "NectarSystem", board: CabBoard) -> None:
        self.system = system
        self.board = board
        self.kernel = CabKernel(board)
        self.datalink = Datalink(board, self.kernel, system.router,
                                 system.cfg)
        self.transport = TransportManager(board, self.kernel, self.datalink,
                                          system.cfg)
        self.services = NodeServices(self.kernel)
        self.node: Optional[NodeHost] = None

    @property
    def name(self) -> str:
        return self.board.name

    @property
    def sim(self) -> Simulator:
        return self.board.sim

    def spawn(self, generator, name: Optional[str] = None):
        """Start a CAB kernel thread (off-loaded application task, §5)."""
        return self.kernel.spawn(generator, name=name)

    def create_mailbox(self, name: str, capacity: Optional[int] = None):
        return self.transport.create_mailbox(name, capacity)

    def register_metrics(self, sampler) -> None:
        """Register the whole stack — board, datalink, transport."""
        self.board.register_metrics(sampler)
        self.datalink.register_metrics(sampler)
        self.transport.register_metrics(sampler)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CabStack {self.name}>"


class NectarSystem:
    """A simulated Nectar installation."""

    #: Whether this system simulates only part of its fabric (a
    #: :class:`~repro.scaleout.partition.PartitionSystem`): the rest
    #: lives in other systems, so a fault target it does not hold is
    #: skipped, and it may hold no CAB.
    partial = False

    def __init__(self, cfg: Optional[NectarConfig] = None) -> None:
        self.cfg = cfg or NectarConfig()
        self.sim = Simulator()
        self.tracer = Tracer(self.sim)
        self.router = Router()
        self.hubs: dict[str, Hub] = {}
        self.cabs: dict[str, CabStack] = {}
        self.nodes: dict[str, NodeHost] = {}
        self.observatory = None
        self.fault_injector = None
        self.resilience = None
        # Per-system so back-to-back builds name hubs identically (a
        # module-global counter leaked across simulations).
        self._auto_names = count(1)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_hub(self, name: Optional[str] = None) -> Hub:
        hub_name = name or f"hub{next(self._auto_names)}"
        if hub_name in self.hubs:
            raise TopologyError(f"duplicate hub name {hub_name!r}")
        hub = Hub(self.sim, hub_name, self.cfg.hub, self.cfg.fiber,
                  tracer=self.tracer)
        self.hubs[hub_name] = hub
        self.router.add_hub(hub)
        return hub

    def _claim_port(self, hub: Hub, port: Optional[int]) -> int:
        """``port``, or else the lowest port of ``hub`` not yet wired.

        The HUB's own wiring is the one record of which ports are used:
        a clash on an explicit port is raised by the wiring functions.
        """
        if port is not None:
            return port
        for candidate in hub.ports:
            if candidate.peer is None:
                return candidate.index
        raise TopologyError(f"{hub.name} has no free ports")

    def add_cab(self, name: str, hub: Hub,
                port: Optional[int] = None) -> CabStack:
        """Create a CAB, wire it to ``hub``, build its software stack."""
        if name in self.cabs:
            raise TopologyError(f"duplicate CAB name {name!r}")
        if hub.name not in self.hubs:
            raise TopologyError(f"hub {hub.name} not part of this system")
        port = self._claim_port(hub, port)
        board = CabBoard(self.sim, name, self.cfg.cab, self.cfg.fiber)
        wire_cab_to_hub(self.sim, board, hub, port,
                        rng_factory=self.cfg.rng_stream)
        self.router.add_cab(name, hub, port)
        stack = CabStack(self, board)
        self.cabs[name] = stack
        return stack

    def connect_hubs(self, hub_a: Hub, hub_b: Hub,
                     port_a: Optional[int] = None,
                     port_b: Optional[int] = None) -> tuple[int, int]:
        """Wire an inter-HUB fiber pair; returns the ports used."""
        port_a = self._claim_port(hub_a, port_a)
        port_b = self._claim_port(hub_b, port_b)
        wire_hub_to_hub(self.sim, hub_a, port_a, hub_b, port_b,
                        rng_factory=self.cfg.rng_stream)
        self.router.add_link(hub_a, port_a, hub_b, port_b)
        return port_a, port_b

    def add_node(self, name: str, cab: CabStack,
                 machine_type: str = "sun") -> NodeHost:
        """Attach a node (Sun, Warp, …) to a CAB over VME."""
        if name in self.nodes:
            raise TopologyError(f"duplicate node name {name!r}")
        node = NodeHost(self.sim, name, machine_type=machine_type)
        node.attach_cab(cab.board)
        cab.node = node
        cab.services.attach_node(node)
        self.nodes[name] = node
        return node

    def finalize(self) -> "NectarSystem":
        """Validate the wiring; call once construction is complete.

        Only a whole fabric must hold HUBs and CABs: a :attr:`partial`
        system's may all live elsewhere.
        """
        if self.partial:
            return self
        if not self.hubs:
            raise TopologyError("system has no HUBs")
        if not self.cabs:
            raise TopologyError("system has no CABs")
        return self

    def observe(self, interval_ns: Optional[int] = None,
                trace: bool = True):
        """Attach the observability layer; returns the Observatory.

        Call after construction and **before** running traffic: probes
        only see what happens after they start.  ``interval_ns`` is the
        sampling period (default
        :data:`~repro.observe.sampler.DEFAULT_INTERVAL_NS`);
        ``trace=False`` keeps metrics but skips event recording (cheaper
        for long sweeps).  See ``docs/OBSERVABILITY.md``.
        """
        from ..observe import DEFAULT_INTERVAL_NS, Observatory
        if self.observatory is not None:
            raise TopologyError("system already has an observatory")
        self.observatory = Observatory(
            self, interval_ns=DEFAULT_INTERVAL_NS if interval_ns is None
            else interval_ns, trace=trace)
        return self.observatory

    def inject_faults(self, scenario):
        """Arm a fault-injection campaign; returns the FaultInjector.

        ``scenario`` is a :class:`~repro.faults.FaultScenario` (or a
        campaign name resolved through
        :func:`~repro.faults.build_campaign`).  Call after construction
        and before running traffic; events fire at their scheduled
        simulated times.  See ``docs/FAULTS.md``.
        """
        from ..faults import FaultInjector, build_campaign
        if self.fault_injector is not None:
            raise TopologyError("system already has a fault injector")
        if isinstance(scenario, str):
            scenario = build_campaign(scenario, self.cfg)
        self.fault_injector = FaultInjector(self, scenario)
        self.fault_injector.start()
        if self.observatory is not None:
            self.fault_injector.register_metrics(self.observatory.sampler)
        return self.fault_injector

    def enable_resilience(self):
        """Start failure detection and self-healing; returns the manager.

        Spawns link-probe, heartbeat and uplink-probe monitor threads on
        the CABs (see :mod:`repro.resilience`), so call after
        construction and before running traffic.  Thresholds and probe
        periods come from ``cfg.resilience``.  See
        ``docs/RESILIENCE.md``.
        """
        from ..resilience import ResilienceManager
        if self.resilience is not None:
            raise TopologyError("system already has a resilience manager")
        self.resilience = ResilienceManager(self)
        self.resilience.start()
        if self.observatory is not None:
            self.resilience.register_metrics(self.observatory.sampler)
        return self.resilience

    # ------------------------------------------------------------------
    # access & execution
    # ------------------------------------------------------------------

    def cab(self, name: str) -> CabStack:
        try:
            return self.cabs[name]
        except KeyError:
            raise TopologyError(f"no CAB named {name!r}") from None

    def hub(self, name: str) -> Hub:
        try:
            return self.hubs[name]
        except KeyError:
            raise TopologyError(f"no hub named {name!r}") from None

    def node(self, name: str) -> NodeHost:
        try:
            return self.nodes[name]
        except KeyError:
            raise TopologyError(f"no node named {name!r}") from None

    def fibers(self) -> dict:
        """Every wired fiber, keyed by its wiring name: each CAB's
        uplink in CAB order, then each HUB port's outgoing fiber in HUB
        and port order."""
        fibers = {}
        for stack in self.cabs.values():
            fiber = stack.board.out_fiber
            if fiber is not None:
                fibers[fiber.name] = fiber
        for hub in self.hubs.values():
            for port in hub.ports:
                if port.out_fiber is not None:
                    fibers[port.out_fiber.name] = port.out_fiber
        return fibers

    def run(self, until: Optional[int] = None) -> int:
        """Advance the simulation; returns the clock."""
        return self.sim.run(until=until)

    @property
    def now(self) -> int:
        return self.sim.now

    def aggregate_port_count(self) -> int:
        return sum(hub.cfg.num_ports for hub in self.hubs.values())

    def report(self) -> dict:
        """A whole-system counters snapshot (hubs, CABs, transports)."""
        from ..hardware.bom import system_bill_of_materials
        return {
            "hubs": {name: dict(hub.counters)
                     for name, hub in self.hubs.items()},
            "cabs": {name: dict(stack.board.counters)
                     for name, stack in self.cabs.items()},
            "transport": {name: dict(stack.transport.counters)
                          for name, stack in self.cabs.items()},
            "datalink": {name: dict(stack.datalink.counters)
                         for name, stack in self.cabs.items()},
            "bill_of_materials": system_bill_of_materials(
                len(self.hubs), len(self.cabs)),
            "simulated_ns": self.sim.now,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<NectarSystem hubs={len(self.hubs)} cabs={len(self.cabs)} "
                f"nodes={len(self.nodes)}>")
