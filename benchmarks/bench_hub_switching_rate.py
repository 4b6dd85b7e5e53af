"""E2 — HUB controller switching rate (§4 goal 2).

Paper: "the HUB central controller can set up a new connection through
the crossbar switch every 70 nanosecond cycle" (≈14.3 M connections/s).

Scenario: many CABs issue opens simultaneously, so the controller's
command queue is full and its service rate is what limits throughput.
"""

from repro.stats import ExperimentTable
from repro.workload.experiments import measure_switching_rate


def test_e2_one_connection_per_cycle():
    result = measure_switching_rate()
    table = ExperimentTable("E2", "Controller switching rate")
    table.add("connections set up", "8 requested",
              str(result["connections"]), result["connections"] == 8)
    table.add("min inter-connection gap", "70 ns (1 cycle)",
              f"{result['min_gap_ns']} ns", result["min_gap_ns"] == 70)
    table.add("peak rate", "14.3 M conn/s",
              f"{result['rate_mconn_per_s']:.1f} M conn/s",
              result["rate_mconn_per_s"] >= 14.0)
    table.check()
