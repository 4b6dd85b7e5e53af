"""E17 — the three CAB-node interfaces (§6.2.3).

Paper: "Three CAB-node interfaces are provided, with different tradeoffs
between efficiency and transparency": shared memory (fastest), sockets
(syscalls + copies, transport still off-loaded), and the network driver
(all transport on the node; binary compatibility).  This bench also
quantifies §3.1's protocol off-load argument: the driver interface *is*
Nectar used without off-loading.
"""

from repro.stats import ExperimentTable
from repro.workload.experiments import measure_node_to_node


def scenario_three_interfaces(size=256):
    shm = measure_node_to_node(interface="shm", size=size)
    sock = measure_node_to_node(interface="socket", size=size)
    driver = measure_node_to_node(interface="driver", size=size)
    return {
        "shm_us": shm["latency_us"],
        "socket_us": sock["latency_us"],
        "driver_us": driver["latency_us"],
        "offload_factor": driver["latency_us"] / shm["latency_us"],
    }


def test_e17_efficiency_transparency_tradeoff():
    result = scenario_three_interfaces()
    table = ExperimentTable("E17", "CAB-node interfaces, 256 B message")
    table.add("1. shared memory (no syscalls)", "fastest",
              f"{result['shm_us']:.0f} µs", True)
    table.add("2. socket (syscalls, CAB transport)", "middle",
              f"{result['socket_us']:.0f} µs",
              result["shm_us"] < result["socket_us"])
    table.add("3. network driver (node transport)", "slowest",
              f"{result['driver_us']:.0f} µs",
              result["socket_us"] < result["driver_us"])
    table.add("off-load benefit (3 ÷ 1)", "large (§3.1)",
              f"{result['offload_factor']:.1f}×",
              result["offload_factor"] > 5)
    table.check()
