"""E16 — the packet pipeline for large node messages (§6.2.2).

Paper: "When sending large messages between nodes, it is important to
overlap packet transfers over the Nectar-net and over the VME bus at each
end, in order to reduce latency and increase throughput."
"""

import pytest

from repro.stats import ExperimentTable
from repro.workload.experiments import measure_node_to_node


def scenario_pipeline_vs_store_and_forward(size=100_000):
    piped = measure_node_to_node(interface="shm", size=size,
                                 pipeline=True)
    plain = measure_node_to_node(interface="shm", size=size,
                                 pipeline=False)
    return {
        "pipelined_us": piped["latency_us"],
        "store_forward_us": plain["latency_us"],
        "pipelined_mbps": piped["mbps"],
        "store_forward_mbps": plain["mbps"],
        "speedup": plain["latency_us"] / piped["latency_us"],
    }


@pytest.mark.benchmark(group="E16-packet-pipeline")
def test_e16_overlap_reduces_latency(benchmark):
    result = benchmark.pedantic(scenario_pipeline_vs_store_and_forward,
                                rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    table = ExperimentTable("E16", "100 KB node-to-node transfer")
    table.add("pipelined (overlap VME+fiber)", "lower",
              f"{result['pipelined_us'] / 1000:.1f} ms")
    table.add("store-and-forward", "higher",
              f"{result['store_forward_us'] / 1000:.1f} ms")
    table.add("latency improvement", "> 1.3×",
              f"{result['speedup']:.2f}×", result["speedup"] > 1.3)
    table.add("pipelined throughput", "approaches VME 10 MB/s",
              f"{result['pipelined_mbps'] / 8:.1f} MB/s",
              result["pipelined_mbps"] / 8 > 4)
    table.print()
    assert result["speedup"] > 1.3


@pytest.mark.benchmark(group="E16-packet-pipeline")
def test_e16_gain_grows_with_message_size(benchmark):
    def sweep():
        gains = {}
        for size in (4_000, 32_000, 128_000):
            piped = measure_node_to_node(interface="shm", size=size,
                                         pipeline=True)["latency_us"]
            plain = measure_node_to_node(interface="shm", size=size,
                                         pipeline=False)["latency_us"]
            gains[size] = plain / piped
        return gains
    gains = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for size, gain in gains.items():
        benchmark.extra_info[f"gain_{size}B"] = gain
    table = ExperimentTable("E16b", "Pipeline gain vs message size")
    for size, gain in sorted(gains.items()):
        table.add(f"{size // 1000} KB message", "grows with size",
                  f"{gain:.2f}×")
    table.print()
    sizes = sorted(gains)
    assert gains[sizes[-1]] > gains[sizes[0]]
