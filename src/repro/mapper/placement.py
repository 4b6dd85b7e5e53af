"""Mapping algorithms: task graph → CAB assignment (§6.3 future work).

Three mappers of increasing quality, mirroring a compiler's options:

* :func:`round_robin_map` — the oblivious baseline.
* :func:`greedy_traffic_map` — co-locate the heaviest-talking task pairs
  (subject to load and constraints), then spread the rest.
* :func:`annealing_map` — local-search refinement of any starting
  placement under a combined communication + imbalance objective.

The communication objective charges each channel ``traffic × hop count``
where hops come from the real router (0 for co-located tasks, 1 within a
HUB cluster, more across clusters), so mapping quality directly reflects
the machine's topology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..errors import NectarineError
from .graph import TaskGraph

if TYPE_CHECKING:  # pragma: no cover
    from ..system.builder import CabStack, NectarSystem

#: Greedy co-location stops at this multiple of the mean per-CAB load.
LOAD_CAP_FACTOR = 2.0
#: Seed of the annealing walk (a fixed stream: same graph, same map).
ANNEALING_SEED = 1989


@dataclass
class Placement:
    """An assignment of every task to a CAB."""

    assignment: dict[str, "CabStack"] = field(default_factory=dict)

    def cab_of(self, task: str) -> "CabStack":
        return self.assignment[task]

    def load_per_cab(self, graph: TaskGraph) -> dict[str, int]:
        loads: dict[str, int] = {}
        for task, cab in self.assignment.items():
            loads[cab.name] = loads.get(cab.name, 0) \
                + graph.tasks[task].compute_ns
        return loads

    def imbalance(self, graph: TaskGraph) -> float:
        """Max/mean load ratio (1.0 = perfectly balanced)."""
        loads = list(self.load_per_cab(graph).values())
        if not loads:
            return 1.0
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 1.0


def _hops(system: "NectarSystem", src: "CabStack",
          dst: "CabStack") -> int:
    if src is dst:
        return 0
    return system.router.route(src.name, dst.name).hub_count


def communication_cost(graph: TaskGraph, placement: Placement,
                       system: "NectarSystem") -> float:
    """Sum over channels of traffic × hop count."""
    total = 0.0
    for channel in graph.channels:
        src = placement.cab_of(channel.src)
        dst = placement.cab_of(channel.dst)
        total += channel.traffic * _hops(system, src, dst)
    return total


def _eligible(task_name: str, graph: TaskGraph,
              cab: "CabStack") -> bool:
    constraint = graph.tasks[task_name].machine_type
    if constraint is None:
        return True
    return cab.node is not None and cab.node.machine_type == constraint


def _check_constraints(graph: TaskGraph, cabs: list["CabStack"]) -> None:
    for name, spec in graph.tasks.items():
        if spec.machine_type is None:
            continue
        if not any(_eligible(name, graph, cab) for cab in cabs):
            raise NectarineError(
                f"no CAB satisfies machine type {spec.machine_type!r} "
                f"for task {name!r}")


def round_robin_map(graph: TaskGraph,
                    cabs: list["CabStack"]) -> Placement:
    """Oblivious baseline: deal tasks onto CABs in declaration order."""
    graph.validate()
    _check_constraints(graph, cabs)
    placement = Placement()
    index = 0
    for name in graph.tasks:
        for probe in range(len(cabs)):
            cab = cabs[(index + probe) % len(cabs)]
            if _eligible(name, graph, cab):
                placement.assignment[name] = cab
                index += probe + 1
                break
    return placement


def greedy_traffic_map(graph: TaskGraph, cabs: list["CabStack"],
                       system: "NectarSystem") -> Placement:
    """Co-locate heavy channels first, respecting a per-CAB load cap."""
    graph.validate()
    _check_constraints(graph, cabs)
    total_load = sum(spec.compute_ns for spec in graph.tasks.values())
    cap = LOAD_CAP_FACTOR * total_load / len(cabs)
    placement = Placement()
    loads: dict[str, float] = {cab.name: 0.0 for cab in cabs}

    def place(name: str, cab: "CabStack") -> None:
        placement.assignment[name] = cab
        loads[cab.name] += graph.tasks[name].compute_ns

    def pick_least_loaded(name: str) -> "CabStack":
        candidates = [cab for cab in cabs if _eligible(name, graph, cab)]
        return min(candidates, key=lambda cab: loads[cab.name])

    for channel in sorted(graph.channels, key=lambda c: -c.traffic):
        src_placed = channel.src in placement.assignment
        dst_placed = channel.dst in placement.assignment
        if src_placed and dst_placed:
            continue
        if not src_placed and not dst_placed:
            cab = pick_least_loaded(channel.src)
            if _eligible(channel.dst, graph, cab) and \
                    loads[cab.name] + graph.tasks[channel.src].compute_ns \
                    + graph.tasks[channel.dst].compute_ns <= cap:
                place(channel.src, cab)
                place(channel.dst, cab)
            else:
                place(channel.src, cab)
                place(channel.dst, pick_least_loaded(channel.dst))
            continue
        anchor, mover = (channel.src, channel.dst) if src_placed \
            else (channel.dst, channel.src)
        cab = placement.assignment[anchor]
        if _eligible(mover, graph, cab) and \
                loads[cab.name] + graph.tasks[mover].compute_ns <= cap:
            place(mover, cab)
        else:
            place(mover, pick_least_loaded(mover))
    for name in graph.tasks:
        if name not in placement.assignment:
            place(name, pick_least_loaded(name))
    return placement


def annealing_map(graph: TaskGraph, cabs: list["CabStack"],
                  system: "NectarSystem",
                  iterations: int = 500,
                  start: Optional[Placement] = None) -> Placement:
    """Simulated-annealing refinement of a placement.

    Imbalance is weighted by the graph's total traffic, so neither
    objective term swamps the other.
    """
    graph.validate()
    _check_constraints(graph, cabs)
    rng = random.Random(ANNEALING_SEED)
    placement = start or greedy_traffic_map(graph, cabs, system)
    placement = Placement(dict(placement.assignment))
    imbalance_weight = max(graph.total_traffic, 1.0)

    def objective(candidate: Placement) -> float:
        return (communication_cost(graph, candidate, system)
                + imbalance_weight * (candidate.imbalance(graph) - 1.0))

    names = list(graph.tasks)
    current = objective(placement)
    temperature = max(current, 1.0)
    for step in range(iterations):
        temperature *= 0.99
        name = rng.choice(names)
        old_cab = placement.assignment[name]
        candidates = [cab for cab in cabs
                      if cab is not old_cab and _eligible(name, graph, cab)]
        if not candidates:
            continue
        new_cab = rng.choice(candidates)
        placement.assignment[name] = new_cab
        proposed = objective(placement)
        delta = proposed - current
        if delta <= 0 or rng.random() < pow(2.718, -delta / temperature):
            current = proposed
        else:
            placement.assignment[name] = old_cab
    return placement
