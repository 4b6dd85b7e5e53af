"""E-COL — HUB-offloaded collectives versus software trees.

The HUB's central controller executes combining commands (fetch-and-add,
barrier arrival counting, reduction folding) at controller-cycle cost,
so a barrier or allreduce completes in one round trip per member plus
tree depth — instead of the log2(N) store-and-forward message rounds a
software dimension exchange pays through congested ports.  The E-COL
scenarios run 12 rounds of allreduce + barrier across 8 ranks while the
7 non-root CABs aim hotspot noise at cab0, which is exactly the traffic
that slows the software paths down.
"""

from repro.sim import units
from repro.stats import ExperimentTable
from repro.workload.experiments import measure_collectives


def scenario_collectives():
    result = measure_collectives()
    out = {"speedup_vs_exchange": result["speedup_vs_exchange"],
           "speedup_vs_tree": result["speedup_vs_tree"],
           "hub_releases": result["combining"].get("releases", 0)}
    for mode, finish_ns in result["finish_ns"].items():
        out[f"{mode}_finish_ms"] = units.to_ms(finish_ns)
    return out


def test_ecol_hub_offload_beats_software_trees():
    result = scenario_collectives()
    table = ExperimentTable(
        "E-COL", "12x (allreduce + barrier), 8 ranks, hotspot noise")
    table.add("HUB-offloaded finish", "-",
              f"{result['hub_finish_ms']:.2f} ms")
    table.add("software k-ary tree finish", "-",
              f"{result['tree_finish_ms']:.2f} ms")
    table.add("dimension exchange finish", "-",
              f"{result['exchange_finish_ms']:.2f} ms")
    table.add("offload speedup vs exchange", "> 1x",
              f"{result['speedup_vs_exchange']:.2f}x",
              result["speedup_vs_exchange"] > 1.0)
    table.add("offload speedup vs tree", "> 1x",
              f"{result['speedup_vs_tree']:.2f}x",
              result["speedup_vs_tree"] > 1.0)
    table.add("HUB releases (12x2 rounds x 8 ranks)", "192",
              str(result["hub_releases"]), result["hub_releases"] == 192)
    table.check()


def test_ecol_schedules_are_deterministic():
    first, second = (measure_collectives()["digests"] for _ in range(2))
    assert first == second, "collective schedules changed between runs"
