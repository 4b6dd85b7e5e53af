"""Large regular fabrics as pure-data specs (§7 scale-up; ROADMAP).

The classic builders in :mod:`repro.topology.builders` construct a live
:class:`~repro.system.NectarSystem` directly.  That is fine for a
handful of HUBs, but partitioned scale-out runs (:mod:`repro.scaleout`)
need every worker process to agree on the *exact* wiring — hub names,
port numbers, fiber names — without ever materializing the whole
system in one process.  A :class:`FabricSpec` is that agreement: a
frozen, picklable value object listing hubs, inter-HUB links with
explicit port assignments, and CAB attachment points.  Builders here
generate the three large regular families drawn from the related
machines:

* :func:`torus_fabric` — k-ary n-cube wraparound grids; at 4 dimensions
  this is the QCDSP arrangement (thousands of cheap nodes on a 4D
  torus).
* :func:`hypercube_fabric` — the iPSC arrangement (one dimension per
  link, 2**d nodes).
* :func:`fat_tree_fabric` — the k-ary fat tree (k pods of edge and
  aggregation switches under a (k/2)**2 core), the standard scalable
  alternative when uniform bisection bandwidth matters more than
  locality.

``build_system`` replays a spec into a normal finalized
:class:`~repro.system.NectarSystem`; a scale-out partition (a
``NectarSystem`` subclass) replays the same spec through the same
:func:`replay` but builds only its own slice, so both worlds wire
byte-identical fabrics (fiber names seed the per-link fault RNG
streams, so the names matching is what makes partitioned runs
bit-identical to single-process runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from ..config import NectarConfig
from ..errors import TopologyError

__all__ = [
    "FABRIC_PORTS",
    "FabricSpec",
    "build_system",
    "fat_tree_fabric",
    "hypercube_fabric",
    "replay",
    "torus_fabric",
]

#: Ports per HUB the fabric builders plan for: the prototype's 16×16
#: crossbar (§3.1).  :func:`replay` checks a spec against the ports of
#: the system it is wired into.
FABRIC_PORTS = 16


@dataclass(frozen=True)
class FabricSpec:
    """A complete wiring plan: hubs, inter-HUB links, CAB attachments.

    ``links`` entries are ``(hub_a, port_a, hub_b, port_b)`` — one
    bidirectional fiber pair each, ports explicit so every process that
    replays the spec wires identical names.  ``cabs`` entries are
    ``(cab_name, hub_name, port)``.  ``dims`` is the grid of a torus
    (hubs in row-major order, last axis fastest), ``None`` for any
    other fabric.
    """

    name: str
    hubs: tuple[str, ...]
    links: tuple[tuple[str, int, str, int], ...]
    cabs: tuple[tuple[str, str, int], ...]
    dims: Optional[tuple[int, ...]] = None

    @cached_property
    def cab_names(self) -> tuple[str, ...]:
        return tuple(cab for cab, _hub, _port in self.cabs)

    def adjacency(self) -> dict[str, set[str]]:
        """Hub-level neighbour sets (for reference BFS in tests)."""
        graph: dict[str, set[str]] = {hub: set() for hub in self.hubs}
        for hub_a, _pa, hub_b, _pb in self.links:
            graph[hub_a].add(hub_b)
            graph[hub_b].add(hub_a)
        return graph

    def validate(self, num_ports: int = FABRIC_PORTS) -> None:
        """Raise :class:`TopologyError` on port clashes or bad refs."""
        if len(set(self.hubs)) != len(self.hubs):
            raise TopologyError(f"{self.name}: duplicate hub names")
        used: dict[str, set[int]] = {hub: set() for hub in self.hubs}

        def claim(hub: str, port: int) -> None:
            if hub not in used:
                raise TopologyError(f"{self.name}: unknown hub {hub!r}")
            if not 0 <= port < num_ports:
                raise TopologyError(
                    f"{self.name}: {hub}.p{port} outside 0..{num_ports - 1}")
            if port in used[hub]:
                raise TopologyError(
                    f"{self.name}: {hub}.p{port} claimed twice")
            used[hub].add(port)

        for hub_a, port_a, hub_b, port_b in self.links:
            if hub_a == hub_b:
                raise TopologyError(f"{self.name}: self-link at {hub_a}")
            claim(hub_a, port_a)
            claim(hub_b, port_b)
        names = set()
        for cab, hub, port in self.cabs:
            if cab in names:
                raise TopologyError(f"{self.name}: duplicate CAB {cab!r}")
            names.add(cab)
            claim(hub, port)


class _PortLedger:
    """Lowest-free-port allocation while a spec is drawn up, before
    any HUB exists; ``FabricSpec.validate`` then checks the result."""

    def __init__(self) -> None:
        self._used: dict[str, set[int]] = {}

    def claim(self, hub: str) -> int:
        used = self._used.setdefault(hub, set())
        for candidate in range(FABRIC_PORTS):
            if candidate not in used:
                used.add(candidate)
                return candidate
        raise TopologyError(f"{hub} has no free ports "
                            f"(all {FABRIC_PORTS} claimed)")


def _attach_cabs(hubs: list[str], cabs_per_hub: int, ledger: _PortLedger,
                 ) -> Iterator[tuple[str, str, int]]:
    for index, hub in enumerate(hubs):
        for k in range(cabs_per_hub):
            suffix = f"_{k}" if cabs_per_hub > 1 else ""
            yield (f"cab{index}{suffix}", hub, ledger.claim(hub))


def torus_fabric(dims: tuple[int, ...], cabs_per_hub: int = 1) -> FabricSpec:
    """A k-ary n-cube: HUB grid with wraparound links in every dimension.

    ``dims`` gives the extent of each dimension; 4-tuple dims model the
    QCDSP 4D torus.  A dimension of extent 2 contributes a single link
    per pair (the wraparound would duplicate it); extent-1 dimensions
    contribute none.  Port budget per hub: 2 links per dimension of
    extent >= 3, 1 per extent-2 dimension, plus ``cabs_per_hub``.
    """
    if not dims or any(d < 1 for d in dims):
        raise TopologyError(f"bad torus dimensions {dims!r}")
    link_ports = sum(2 if d >= 3 else (1 if d == 2 else 0) for d in dims)
    if link_ports + cabs_per_hub > FABRIC_PORTS:
        raise TopologyError(
            f"torus{dims} needs {link_ports} link ports + {cabs_per_hub} "
            f"CAB ports per hub; a {FABRIC_PORTS}-port HUB cannot host that")

    def coords() -> Iterator[tuple[int, ...]]:
        total = 1
        for d in dims:
            total *= d
        for flat in range(total):
            coordinate = []
            rest = flat
            for d in reversed(dims):
                coordinate.append(rest % d)
                rest //= d
            yield tuple(reversed(coordinate))

    hubs = ["hub_" + "_".join(str(c) for c in coordinate)
            for coordinate in coords()]
    strides = [1] * len(dims)
    for axis in range(len(dims) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * dims[axis + 1]
    ledger = _PortLedger()
    links = []
    for flat, coordinate in enumerate(coords()):
        for axis, extent in enumerate(dims):
            if extent < 2:
                continue
            if extent == 2 and coordinate[axis] == 1:
                continue  # wraparound would duplicate the extent-2 link
            # The +1 neighbour on this axis, wrapping at the far edge;
            # both ends reuse the name strings in ``hubs``.
            step = strides[axis] if coordinate[axis] + 1 < extent \
                else -(extent - 1) * strides[axis]
            here, there = hubs[flat], hubs[flat + step]
            links.append((here, ledger.claim(here),
                          there, ledger.claim(there)))
    cabs = tuple(_attach_cabs(hubs, cabs_per_hub, ledger))
    spec = FabricSpec(name="torus" + "x".join(str(d) for d in dims),
                      hubs=tuple(hubs), links=tuple(links), cabs=cabs,
                      dims=tuple(dims))
    spec.validate()
    return spec


def hypercube_fabric(dim: int, cabs_per_hub: int = 1) -> FabricSpec:
    """A binary hypercube of ``2**dim`` HUBs — the iPSC arrangement.

    Hub ``hub_i`` links to every ``hub_j`` with ``j = i ^ (1 << axis)``;
    link ports are claimed in axis order, so hub ``i`` talks over axis
    ``a`` on a deterministic port every run.
    """
    if dim < 0:
        raise TopologyError(f"negative hypercube dimension {dim}")
    if dim + cabs_per_hub > FABRIC_PORTS:
        raise TopologyError(
            f"a {FABRIC_PORTS}-port HUB cannot host {dim} hypercube links "
            f"plus {cabs_per_hub} CABs")
    count = 1 << dim
    hubs = [f"hub_{i}" for i in range(count)]
    ledger = _PortLedger()
    links = []
    for i in range(count):
        for axis in range(dim):
            j = i ^ (1 << axis)
            if j < i:
                continue  # each pair wired once, from the lower index
            links.append((hubs[i], ledger.claim(hubs[i]),
                          hubs[j], ledger.claim(hubs[j])))
    cabs = tuple(_attach_cabs(hubs, cabs_per_hub, ledger))
    spec = FabricSpec(name=f"hypercube{dim}", hubs=tuple(hubs),
                      links=tuple(links), cabs=cabs)
    spec.validate()
    return spec


def fat_tree_fabric(k: int) -> FabricSpec:
    """A k-ary fat tree: k pods, (k/2)**2 cores, k**3/4 CAB slots.

    Edge switch ``e`` of pod ``p`` hosts ``k/2`` CABs and uplinks to
    every aggregation switch in its pod; aggregation switch ``a`` of pod
    ``p`` uplinks to cores ``a*(k/2) .. a*(k/2)+k/2-1``.  ``k`` must be
    even and at most :data:`FABRIC_PORTS` (each switch uses exactly k
    ports).
    """
    if k < 2 or k % 2:
        raise TopologyError(f"fat tree arity must be even and >= 2, not {k}")
    if k > FABRIC_PORTS:
        raise TopologyError(
            f"fat tree arity {k} exceeds the {FABRIC_PORTS}-port HUB")
    half = k // 2
    cores = [f"core_{i}" for i in range(half * half)]
    aggs = [[f"agg_{p}_{a}" for a in range(half)] for p in range(k)]
    edges = [[f"edge_{p}_{e}" for e in range(half)] for p in range(k)]
    hubs = cores + [name for pod in aggs for name in pod] \
        + [name for pod in edges for name in pod]
    ledger = _PortLedger()
    links = []
    for p in range(k):
        for a in range(half):
            for c in range(half):
                core = cores[a * half + c]
                links.append((aggs[p][a], ledger.claim(aggs[p][a]),
                              core, ledger.claim(core)))
            for e in range(half):
                links.append((edges[p][e], ledger.claim(edges[p][e]),
                              aggs[p][a], ledger.claim(aggs[p][a])))
    cabs = []
    index = 0
    for p in range(k):
        for e in range(half):
            for _h in range(half):
                cabs.append((f"cab{index}", edges[p][e],
                             ledger.claim(edges[p][e])))
                index += 1
    spec = FabricSpec(name=f"fattree{k}", hubs=tuple(hubs),
                      links=tuple(links), cabs=tuple(cabs))
    spec.validate()
    return spec


def replay(spec: FabricSpec, system):
    """Wire ``spec`` into ``system`` and finalize it: hubs, then links,
    then CABs, in spec order, through the system's ``add_hub`` /
    ``connect_hubs`` / ``add_cab``.  The one loop behind a whole system
    and a scale-out partition, which overrides those three."""
    spec.validate(system.cfg.hub.num_ports)
    hubs = {name: system.add_hub(name) for name in spec.hubs}
    for hub_a, port_a, hub_b, port_b in spec.links:
        system.connect_hubs(hubs[hub_a], hubs[hub_b],
                            port_a=port_a, port_b=port_b)
    for cab, hub, port in spec.cabs:
        system.add_cab(cab, hubs[hub], port=port)
    return system.finalize()


def build_system(spec: FabricSpec, cfg: Optional[NectarConfig] = None):
    """Replay a spec into a finalized single-process NectarSystem."""
    from ..system.builder import NectarSystem
    return replay(spec, NectarSystem(cfg))
