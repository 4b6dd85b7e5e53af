"""E12 — packet switching vs circuit switching across message sizes
(§4.2.3).

Paper: packets are limited to the 1 KB input queue; "circuit switching
must be used for larger packets but, since the overhead of circuit setup
is small compared to the packet transmission time, this does not add
significantly to latency."
"""

from repro.stats import ExperimentTable
from repro.workload.experiments import measure_cab_to_cab, measure_throughput


def scenario_crossover():
    rows = {}
    for size in (64, 512, 960):
        rows[("packet", size)] = measure_cab_to_cab(
            size=size, mode="packet", samples=3)["latency_us"]
        rows[("circuit", size)] = measure_cab_to_cab(
            size=size, mode="circuit", samples=3)["latency_us"]
    return rows


def scenario_large_circuit_overhead():
    # Setup cost relative to transmission for a large circuit transfer.
    big = measure_throughput(size=64_000, mode="circuit")
    wire_us = 64_000 * 0.08  # 80 ns/byte serialisation alone
    return {
        "elapsed_us": big["elapsed_us"],
        "wire_only_us": wire_us,
        "overhead_fraction": (big["elapsed_us"] - wire_us) / wire_us,
        "mbps": big["mbps"],
    }


def test_e12_small_messages_prefer_packet_switching():
    rows = scenario_crossover()
    table = ExperimentTable(
        "E12a", "Packet vs circuit latency by message size")
    for size in (64, 512, 960):
        packet = rows[("packet", size)]
        circuit = rows[("circuit", size)]
        table.add(f"{size} B packet-switched", "cheaper for small",
                  f"{packet:.1f} µs")
        table.add(f"{size} B circuit-switched", "adds setup round-trip",
                  f"{circuit:.1f} µs", circuit > packet)
    table.check()


def test_e12_circuit_setup_negligible_for_large():
    result = scenario_large_circuit_overhead()
    table = ExperimentTable(
        "E12b", "Circuit setup overhead on a 64 KB transfer")
    table.add("end-to-end", "≈ wire time", f"{result['elapsed_us']:.0f} µs")
    table.add("pure serialisation", "5120 µs",
              f"{result['wire_only_us']:.0f} µs")
    table.add("overhead over wire time", "small (§4.2.3)",
              f"{result['overhead_fraction'] * 100:.1f} %",
              result["overhead_fraction"] < 0.05)
    table.check()
