"""Design-choice ablations called out in DESIGN.md §5.

* Hardware checksum unit (§5.1) vs software checksumming on the CAB CPU.
* Byte-stream window size (flow-control headroom on the bandwidth-delay
  product).
* Interrupt-per-message (§3.1): Nectar interrupts the node once per
  *message*; the driver interface interrupts once per *packet*.
"""

from dataclasses import replace

from repro.config import NectarConfig
from repro.stats import ExperimentTable
from repro.workload.experiments import measure_node_to_node, measure_throughput


def stream_throughput(cfg=None, size=64_000):
    return measure_throughput(size, cfg=cfg, protocol="stream")["mbps"]


def test_ablation_hardware_checksum():
    def scenario():
        hw_cfg = NectarConfig()
        sw_cfg = replace(
            hw_cfg, cab=replace(hw_cfg.cab, hardware_checksum=False))
        return {
            "hw_mbps": stream_throughput(hw_cfg),
            "sw_mbps": stream_throughput(sw_cfg),
        }
    result = scenario()
    result["gain"] = result["hw_mbps"] / result["sw_mbps"]
    table = ExperimentTable("A1", "Hardware vs software checksum (§5.1)")
    table.add("hardware unit (overlapped)", "full rate",
              f"{result['hw_mbps']:.1f} Mb/s")
    table.add("software on 16 MHz CPU", "CPU-bound",
              f"{result['sw_mbps']:.1f} Mb/s",
              result["sw_mbps"] < result["hw_mbps"])
    table.add("hardware gain", "> 1.5×", f"{result['gain']:.1f}×",
              result["gain"] > 1.5)
    table.check()


def test_ablation_stream_window():
    def scenario():
        rates = {}
        for window in (1, 2, 8):
            cfg = NectarConfig()
            cfg = replace(
                cfg, transport=replace(cfg.transport, window_packets=window))
            rates[window] = stream_throughput(cfg)
        return rates
    rates = scenario()
    table = ExperimentTable("A2", "Byte-stream window size (64 KB)")
    for window, rate in sorted(rates.items()):
        table.add(f"window = {window} packets", "larger is faster",
                  f"{rate:.1f} Mb/s")
    assert rates[8] > rates[1]
    table.check()


def test_ablation_interrupt_per_message_vs_per_packet():
    """§3.1: 'interrupts are required only for high-level events …
    rather than low-level events'.  Shared-memory receives need no node
    interrupts at all; the driver interface takes one per packet."""
    def scenario(size=8_000):
        return {interface: measure_node_to_node(
                    interface, size=size)["rx_interrupts"]
                for interface in ("shm", "driver")}
    result = scenario()
    table = ExperimentTable("A3", "Node interrupts for an 8 KB message")
    table.add("shared memory (poll)", "0 interrupts",
              str(result["shm"]), result["shm"] == 0)
    table.add("network driver", "1 per packet (9 packets)",
              str(result["driver"]), result["driver"] >= 9)
    table.check()
