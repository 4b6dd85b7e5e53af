"""E5 — node-process to node-process latency (§2.3).

Paper goal: "the corresponding latency for processes residing in nodes
should be under 100 microseconds" — achieved with the shared-memory
interface (no syscalls, no interrupts, polling receive).

The ablation quantifies §3.1's three software-cost claims by comparing
against the socket interface (syscalls + copies) — the restructuring is
what buys the factor.
"""

from repro.stats import ExperimentTable
from repro.workload.experiments import measure_node_to_node


def test_e5_shared_memory_under_100us():
    result = measure_node_to_node()
    table = ExperimentTable("E5", "Node-to-node latency, shared memory")
    table.add("one-way latency (32 B)", "< 100 µs",
              f"{result['latency_us']:.1f} µs",
              result["latency_us"] < 100)
    table.check()


def test_e5_ablation_socket_interface_pays_os_costs():
    def compare():
        shm = measure_node_to_node(interface="shm", size=32)
        sock = measure_node_to_node(interface="socket", size=32)
        return {"shm_us": shm["latency_us"], "socket_us": sock["latency_us"],
                "ratio": sock["latency_us"] / shm["latency_us"]}
    result = compare()
    table = ExperimentTable("E5-ablation",
                            "Interface cost: mapped memory vs syscalls")
    table.add("shared memory", "< 100 µs", f"{result['shm_us']:.1f} µs",
              result["shm_us"] < 100)
    table.add("socket (syscalls+copies)", "slower",
              f"{result['socket_us']:.1f} µs",
              result["socket_us"] > result["shm_us"])
    table.add("socket / shm", "> 1.5×", f"{result['ratio']:.1f}×",
              result["ratio"] > 1.5)
    table.check()
