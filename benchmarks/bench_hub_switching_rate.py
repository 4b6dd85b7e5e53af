"""E2 — HUB controller switching rate (§4 goal 2).

Paper: "the HUB central controller can set up a new connection through
the crossbar switch every 70 nanosecond cycle" (≈14.3 M connections/s).

Scenario: many CABs issue opens simultaneously, so the controller's
command queue is full and its service rate is what limits throughput.
"""

import pytest

from repro.stats import ExperimentTable
from repro.workload.experiments import measure_switching_rate


@pytest.mark.benchmark(group="E2-switching-rate")
def test_e2_one_connection_per_cycle(benchmark):
    result = benchmark.pedantic(measure_switching_rate, rounds=1,
                                iterations=1)
    benchmark.extra_info.update(result)
    table = ExperimentTable("E2", "Controller switching rate")
    table.add("connections set up", "8 requested",
              str(result["connections"]), result["connections"] == 8)
    table.add("min inter-connection gap", "70 ns (1 cycle)",
              f"{result['min_gap_ns']} ns", result["min_gap_ns"] == 70)
    table.add("peak rate", "14.3 M conn/s",
              f"{result['rate_mconn_per_s']:.1f} M conn/s",
              result["rate_mconn_per_s"] >= 14.0)
    table.print()
    assert result["min_gap_ns"] == 70
    assert result["connections"] == 8
