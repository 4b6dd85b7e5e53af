"""Fiber wiring between CABs and HUBs and between HUBs (§3.1).

Every CAB connects to a HUB via a pair of fiber lines carrying signals in
opposite directions; HUB-HUB links use identical I/O ports, so "there is
no a priori restriction on how many links can be used for inter-HUB
connections".
"""

from __future__ import annotations

from typing import Optional

from ..errors import TopologyError
from ..sim import Simulator
from .cab import CabBoard
from .fiber import Fiber, RngFactory
from .hub import Hub


def wire_cab_to_hub(sim: Simulator, cab: CabBoard, hub: Hub, port_index: int,
                    rng_factory: Optional[RngFactory] = None) -> None:
    """Attach ``cab`` to ``hub`` at ``port_index`` with a fiber pair."""
    port = hub.port(port_index)
    if port.peer is not None:
        raise TopologyError(f"{hub.name}.p{port_index} already wired")
    if cab.out_fiber is not None:
        raise TopologyError(f"{cab.name} already wired to a HUB")
    up_name = f"{cab.name}->{hub.name}.p{port_index}"
    down_name = f"{hub.name}.p{port_index}->{cab.name}"
    uplink = Fiber(sim, hub.fiber_cfg, up_name, rng_factory=rng_factory)
    downlink = Fiber(sim, hub.fiber_cfg, down_name, rng_factory=rng_factory)
    uplink.connect(port)
    downlink.connect(cab)
    cab.out_fiber = uplink
    cab.hub_port = port
    port.out_fiber = downlink
    port.peer = cab


def wire_hub_to_hub(sim: Simulator, hub_a: Hub, port_a: int,
                    hub_b: Hub, port_b: int,
                    rng_factory: Optional[RngFactory] = None) -> None:
    """Connect two HUBs with a fiber pair (one port on each side)."""
    if hub_a is hub_b:
        raise TopologyError(f"cannot wire {hub_a.name} to itself")
    cfg = hub_a.fiber_cfg
    pa = hub_a.port(port_a)
    pb = hub_b.port(port_b)
    if pa.peer is not None:
        raise TopologyError(f"{hub_a.name}.p{port_a} already wired")
    if pb.peer is not None:
        raise TopologyError(f"{hub_b.name}.p{port_b} already wired")
    ab_name = f"{hub_a.name}.p{port_a}->{hub_b.name}.p{port_b}"
    ba_name = f"{hub_b.name}.p{port_b}->{hub_a.name}.p{port_a}"
    a_to_b = Fiber(sim, cfg, ab_name, rng_factory=rng_factory)
    b_to_a = Fiber(sim, cfg, ba_name, rng_factory=rng_factory)
    a_to_b.connect(pb)
    b_to_a.connect(pa)
    pa.out_fiber = a_to_b
    pa.peer = pb
    pb.out_fiber = b_to_a
    pb.peer = pa
