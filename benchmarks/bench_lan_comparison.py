"""E7 — Nectar versus a current LAN (§3.1).

Paper: "The Nectar-net offers at least an order of magnitude improvement
in bandwidth and latency over current LANs."  Baseline: 10 Mb/s Ethernet
with the in-kernel protocol stacks of refs [3,5,11].
"""

from repro.stats import ExperimentTable
from repro.workload.experiments import (measure_lan_node_to_node,
                                        measure_node_to_node)


def scenario_latency_comparison():
    nectar = measure_node_to_node(interface="shm", size=64)
    lan = measure_lan_node_to_node(size=64)
    return {
        "nectar_us": nectar["latency_us"],
        "lan_us": lan["latency_us"],
        "speedup": lan["latency_us"] / nectar["latency_us"],
    }


def scenario_bandwidth_comparison(size=200_000):
    from repro.workload.experiments import measure_throughput
    net = measure_throughput(size=size, mode="circuit")
    node = measure_node_to_node(interface="shm", size=size)
    lan = measure_lan_node_to_node(size=size)
    return {
        "nectar_net_mbps": net["mbps"],
        "nectar_node_mbps": node["mbps"],
        "lan_mbps": lan["mbps"],
        "net_speedup": net["mbps"] / lan["mbps"],
        "node_speedup": node["mbps"] / lan["mbps"],
    }


def test_e7_latency_order_of_magnitude():
    result = scenario_latency_comparison()
    table = ExperimentTable("E7a", "Small-message latency vs current LAN")
    table.add("Nectar node-to-node (64 B)", "—",
              f"{result['nectar_us']:.0f} µs")
    table.add("Ethernet + kernel stack (64 B)", "~1 ms era-typical",
              f"{result['lan_us']:.0f} µs")
    table.add("improvement", "≥ 10×", f"{result['speedup']:.1f}×",
              result["speedup"] >= 10)
    table.check()


def test_e7_bandwidth_order_of_magnitude():
    result = scenario_bandwidth_comparison()
    table = ExperimentTable("E7b", "Bulk throughput vs current LAN (200 KB)")
    table.add("Nectar-net CAB-to-CAB", "~100 Mb/s line rate",
              f"{result['nectar_net_mbps']:.1f} Mb/s",
              result["nectar_net_mbps"] > 90)
    table.add("Nectar node-to-node", "VME-limited (< 80 Mb/s)",
              f"{result['nectar_node_mbps']:.1f} Mb/s")
    table.add("Ethernet + kernel stack", "< 10 Mb/s wire",
              f"{result['lan_mbps']:.1f} Mb/s", result["lan_mbps"] < 10)
    table.add("network improvement", "≥ 10×",
              f"{result['net_speedup']:.1f}×", result["net_speedup"] >= 10)
    table.add("node-level improvement", "several ×",
              f"{result['node_speedup']:.1f}×",
              result["node_speedup"] >= 3)
    table.check()
