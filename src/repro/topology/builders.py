"""Canonical topologies from the paper's figures (§3.1, Figures 2–4, 7).

Every builder returns a finalized :class:`~repro.system.NectarSystem`.
"""

from __future__ import annotations

from typing import Optional

from ..config import NectarConfig
from ..errors import TopologyError
from ..system.builder import NectarSystem


def single_hub_system(num_cabs: int,
                      cfg: Optional[NectarConfig] = None,
                      with_nodes: bool = False) -> NectarSystem:
    """Figure 2: one HUB with ``num_cabs`` CABs on its I/O ports."""
    system = NectarSystem(cfg)
    hub = system.add_hub("hub0")
    if num_cabs > hub.cfg.num_ports:
        raise TopologyError(
            f"a {hub.cfg.num_ports}-port HUB cannot host {num_cabs} CABs")
    for index in range(num_cabs):
        cab = system.add_cab(f"cab{index}", hub)
        if with_nodes:
            system.add_node(f"node{index}", cab)
    return system.finalize()


def linear_system(num_hubs: int, cabs_per_hub: int,
                  cfg: Optional[NectarConfig] = None) -> NectarSystem:
    """A chain of HUBs — the simplest multi-hop arrangement."""
    if num_hubs < 1:
        raise TopologyError("need at least one hub")
    system = NectarSystem(cfg)
    hubs = [system.add_hub(f"hub{i}") for i in range(num_hubs)]
    for left, right in zip(hubs, hubs[1:]):
        system.connect_hubs(left, right)
    for hub_index, hub in enumerate(hubs):
        for cab_index in range(cabs_per_hub):
            system.add_cab(f"cab{hub_index}_{cab_index}", hub)
    return system.finalize()


def mesh_system(rows: int, cols: int, cabs_per_hub: int,
                cfg: Optional[NectarConfig] = None) -> NectarSystem:
    """Figure 4: HUB clusters connected in a 2-D mesh."""
    if rows < 1 or cols < 1:
        raise TopologyError("mesh needs positive dimensions")
    system = NectarSystem(cfg)
    grid = [[system.add_hub(f"hub_{r}_{c}") for c in range(cols)]
            for r in range(rows)]
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                system.connect_hubs(grid[r][c], grid[r][c + 1])
            if r + 1 < rows:
                system.connect_hubs(grid[r][c], grid[r + 1][c])
    for r in range(rows):
        for c in range(cols):
            for k in range(cabs_per_hub):
                system.add_cab(f"cab_{r}_{c}_{k}", grid[r][c])
    return system.finalize()


def dual_link_system(cabs_per_hub: int, links: int = 2,
                     cfg: Optional[NectarConfig] = None) -> NectarSystem:
    """Two HUBs joined by ``links`` parallel fiber pairs (§3.1).

    "There is no a priori restriction on how many links can be used for
    inter-HUB connections" — this is the minimal topology where one
    inter-HUB link can die while an alternate path survives, so it is
    the canonical testbed for self-healing routing.  Link ``k`` occupies
    port ``k`` on both HUBs; CABs are named ``cab<hub>_<index>``.
    """
    if links < 1:
        raise TopologyError("need at least one inter-HUB link")
    system = NectarSystem(cfg)
    hub0 = system.add_hub("hub0")
    hub1 = system.add_hub("hub1")
    for _ in range(links):
        system.connect_hubs(hub0, hub1)
    for hub_index, hub in enumerate((hub0, hub1)):
        for cab_index in range(cabs_per_hub):
            system.add_cab(f"cab{hub_index}_{cab_index}", hub)
    return system.finalize()


def figure7_system() -> NectarSystem:
    """The 4-HUB system of Figure 7, with the paper's port assignments.

    * CAB3 on HUB2.p4; HUB2.p8 ↔ HUB1.p3; CAB1 on HUB1.p8 — so the
      circuit example "open HUB2 P8 / open-with-reply HUB1 P8" routes
      CAB3 → CAB1 (§4.2.1).
    * CAB2 on HUB1.p1; HUB1.p6 ↔ HUB4.p1; CAB4 on HUB4.p5;
      HUB4.p3 ↔ HUB3.p6; CAB5 on HUB3.p4 — so the multicast example
      "open HUB1 P6 / open-reply HUB4 P5 / open HUB4 P3 / open-reply
      HUB3 P4" reaches CAB4 and CAB5 (§4.2.2).
    """
    system = NectarSystem()
    hub1 = system.add_hub("HUB1")
    hub2 = system.add_hub("HUB2")
    hub3 = system.add_hub("HUB3")
    hub4 = system.add_hub("HUB4")
    system.connect_hubs(hub2, hub1, port_a=8, port_b=3)
    system.connect_hubs(hub1, hub4, port_a=6, port_b=1)
    system.connect_hubs(hub4, hub3, port_a=3, port_b=6)
    system.add_cab("CAB1", hub1, port=8)
    system.add_cab("CAB2", hub1, port=1)
    system.add_cab("CAB3", hub2, port=4)
    system.add_cab("CAB4", hub4, port=5)
    system.add_cab("CAB5", hub3, port=4)
    return system.finalize()
