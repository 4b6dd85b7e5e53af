"""E25 — the VLSI scale-up projection (§3.1, §3.2).

"8-bit wide 32 × 32 crossbars can be built with off-the-shelf parts, and
128 × 128 crossbars are possible with custom VLSI."  The preset grows
the crossbar to 128 ports at unchanged timing: one HUB then serves 128
CABs with 12.8 Gb/s aggregate while per-pair latency stays what the
16-port prototype delivers.
"""

from repro.config import default_config, vlsi_config
from repro.stats import ExperimentTable
from repro.workload.experiments import measure_disjoint_pairs


def measure_pairs(cfg, num_pairs):
    return measure_disjoint_pairs(num_pairs, cfg=cfg)["mbps"]


def scenario_scaleup():
    prototype = measure_pairs(default_config(), 8)     # 16-port HUB full
    vlsi = measure_pairs(vlsi_config(), 64)            # 128-port HUB full
    return {"prototype_gbps": prototype / 1000,
            "vlsi_gbps": vlsi / 1000,
            "scale_factor": vlsi / prototype}


def test_e25_vlsi_hub_aggregate():
    result = scenario_scaleup()
    table = ExperimentTable("E25", "Prototype vs VLSI crossbar (§3.2)")
    # N disjoint pairs drive N fibers one way: half the port count.
    # (The all-ports figure — 1.6 / 12.8 Gb/s — is E6's ring scenario.)
    table.add("16-port prototype, 8 pairs busy", "~0.8 Gb/s (8 fibers)",
              f"{result['prototype_gbps']:.2f} Gb/s",
              result["prototype_gbps"] > 0.7)
    table.add("128-port VLSI, 64 pairs busy", "~6.4 Gb/s (64 fibers)",
              f"{result['vlsi_gbps']:.2f} Gb/s",
              result["vlsi_gbps"] > 5.6)
    table.add("scale factor", "8×", f"{result['scale_factor']:.1f}×",
              7 < result["scale_factor"] < 9)
    table.check()
