"""E23 — automated task mapping (§6.3 future work).

"Automating the mapping process will not only simplify the programming
task, but will also make programs portable across multiple Nectar
configurations."  The bench maps one clustered task graph onto a 2×2
mesh with three mappers and runs the *same* workload on each placement:
mapping quality shows up directly as makespan.
"""

from repro.mapper import (TaskGraph, annealing_map, communication_cost,
                          greedy_traffic_map, round_robin_map,
                          run_workload)
from repro.sim import units
from repro.stats import ExperimentTable
from repro.topology import mesh_system


def pipeline_graph(stages=4, width=2):
    """A communication-dominated pipeline: stage-to-stage messages cost
    far more wire time than the per-stage compute, so placement is what
    determines the makespan (the regime §6.3's mapping tools target)."""
    graph = TaskGraph()
    for stage in range(stages):
        for lane in range(width):
            graph.add_task(f"s{stage}_l{lane}", compute_ns=10_000)
    for stage in range(stages - 1):
        for lane in range(width):
            graph.add_channel(f"s{stage}_l{lane}",
                              f"s{stage + 1}_l{lane}",
                              message_bytes=8192, rate=8.0)
    # light shuffle between lanes at each stage boundary
    for stage in range(stages - 1):
        graph.add_channel(f"s{stage}_l0", f"s{stage + 1}_l1",
                          message_bytes=64, rate=0.5)
    return graph


def scenario_mapping_quality():
    results = {}
    for mapper_name in ("round_robin", "greedy", "annealing"):
        system = mesh_system(2, 2, cabs_per_hub=2)
        cabs = [system.cab(f"cab_{r}_{c}_{k}")
                for r in range(2) for c in range(2) for k in range(2)]
        graph = pipeline_graph()
        if mapper_name == "round_robin":
            placement = round_robin_map(graph, cabs)
        elif mapper_name == "greedy":
            placement = greedy_traffic_map(graph, cabs, system)
        else:
            placement = annealing_map(graph, cabs, system,
                                      iterations=400)
        cost = communication_cost(graph, placement, system)
        makespan = run_workload(system, graph, placement, rounds=4,
                                until=120_000_000_000)
        results[mapper_name] = {"comm_cost": cost,
                                "makespan_us": units.to_us(makespan)}
    return results


def test_e23_mapping_quality():
    results = scenario_mapping_quality()
    table = ExperimentTable("E23", "Mapping a pipeline onto a 2×2 mesh")
    for name in ("round_robin", "greedy", "annealing"):
        metrics = results[name]
        table.add(f"{name}: traffic×hops / makespan", "lower is better",
                  f"{metrics['comm_cost']:.0f} / "
                  f"{metrics['makespan_us']:.0f} µs")
    table.add("greedy cuts traffic×hops vs round robin", "≥ 2×",
              f"{results['round_robin']['comm_cost'] / results['greedy']['comm_cost']:.1f}×",
              results["greedy"]["comm_cost"]
              < results["round_robin"]["comm_cost"] / 2)
    table.add("annealing no worse than greedy (comm)", "yes",
              "yes" if results["annealing"]["comm_cost"]
              <= results["greedy"]["comm_cost"] + 1e-9 else "no",
              results["annealing"]["comm_cost"]
              <= results["greedy"]["comm_cost"] + 1e-9)
    speedup = (results["round_robin"]["makespan_us"]
               / results["annealing"]["makespan_us"])
    table.add("annealed placement speedup (makespan)", "large",
              f"{speedup:.1f}×", speedup > 2)
    table.check()
