"""E4 — CAB-process to CAB-process latency (§2.3).

Paper goal: "the latency for a message sent between processes on two
CABs should be under 30 microseconds" (fiber transmission excluded; we
include it, which only makes the bar higher).
"""

from repro.stats import ExperimentTable
from repro.workload.experiments import measure_cab_to_cab


def test_e4_small_message_under_30us():
    result = measure_cab_to_cab(size=32)
    table = ExperimentTable("E4", "CAB-to-CAB process latency (32 B)")
    table.add("one-way latency", "< 30 µs",
              f"{result['latency_us']:.1f} µs",
              result["latency_us"] < 30)
    table.check()


def test_e4_latency_vs_message_size():
    def sweep():
        rows = {}
        for size in (32, 128, 512, 960):
            rows[size] = measure_cab_to_cab(size=size)["latency_us"]
        return {"by_size_us": rows}
    result = sweep()
    table = ExperimentTable("E4", "Latency vs message size (1 packet)")
    for size, latency in result["by_size_us"].items():
        table.add(f"{size} B datagram", "< 30 µs + wire time",
                  f"{latency:.1f} µs",
                  latency < 30 + size * 0.08 / 1000 * 1000 + 80)
    # Latency grows roughly with serialisation time (80 ns/byte).
    sizes = sorted(result["by_size_us"])
    assert result["by_size_us"][sizes[-1]] > result["by_size_us"][sizes[0]]
    table.check()
