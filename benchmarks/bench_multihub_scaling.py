"""E9 — multi-HUB latency scaling (§4 goal 3, §2.3).

Paper: "Because of the low switching and transfer latency of a single
HUB, the latency of process to process communication in a multi-HUB
system is not significantly higher."  Also exercises the 2-D mesh of
Figure 4 and hardware inter-HUB flow control (§4.2.3).
"""

from repro.sim import units
from repro.stats import ExperimentTable
from repro.topology import mesh_system
from repro.workload.experiments import measure_multihop, timed_send


def scenario_chain_sweep():
    by_hubs = {hubs: measure_multihop(hubs)["latency_us"]
               for hubs in (1, 2, 3, 4, 6)}
    per_hop_us = (by_hubs[6] - by_hubs[1]) / 5
    return {"by_hubs_us": by_hubs, "per_hop_us": per_hop_us}


def scenario_mesh_corner_to_corner(size=32):
    system = mesh_system(3, 3, cabs_per_hub=1)
    elapsed = timed_send(system, system.cab("cab_0_0_0"),
                         system.cab("cab_2_2_0"), size)
    return {"mesh_latency_us": units.to_us(elapsed)}


def test_e9_chain_latency_scaling():
    result = scenario_chain_sweep()
    table = ExperimentTable("E9", "Latency vs HUB count (32 B datagram)")
    base = result["by_hubs_us"][1]
    for hubs, latency in sorted(result["by_hubs_us"].items()):
        table.add(f"{hubs} HUB chain", "not significantly higher",
                  f"{latency:.1f} µs", latency < base * 1.5)
    table.add("marginal cost per HUB", "~1 µs",
              f"{result['per_hop_us']:.2f} µs", result["per_hop_us"] < 3)
    table.check()


def test_e9_mesh_figure4():
    result = scenario_mesh_corner_to_corner()
    table = ExperimentTable("E9-mesh", "3×3 mesh corner-to-corner (Fig 4)")
    table.add("5-HUB diagonal latency", "< 100 µs, near single-HUB",
              f"{result['mesh_latency_us']:.1f} µs",
              result["mesh_latency_us"] < 40)
    table.check()
