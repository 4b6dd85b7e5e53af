"""E14 — VME interface bandwidth (§5.2).

Paper: "The initial CAB implementation supports a VME bandwidth of 10
megabytes/second, which is close to the speed of the current fiber
interface" (12.5 MB/s).
"""

from repro.sim import units
from repro.stats import ExperimentTable
from repro.topology import single_hub_system


def scenario_vme_bulk(num_bytes=1_000_000):
    system = single_hub_system(2, with_nodes=True)
    stack = system.cab("cab0")
    state = {}

    def mover():
        state["t0"] = system.now
        yield from stack.board.dma.vme_transfer(num_bytes, to_cab=True)
        state["t"] = system.now
    system.sim.process(mover())
    system.run(until=10_000_000_000)
    elapsed = state["t"] - state["t0"]
    return {
        "vme_mbytes": units.throughput_mbytes(num_bytes, elapsed),
        "fiber_mbytes": 12.5,
    }


def test_e14_vme_10_mbytes_per_second():
    result = scenario_vme_bulk()
    table = ExperimentTable("E14", "VME interface bandwidth")
    table.add("VME DMA throughput", "10 MB/s",
              f"{result['vme_mbytes']:.2f} MB/s",
              abs(result["vme_mbytes"] - 10.0) < 0.2)
    table.add("vs fiber interface", "close to 12.5 MB/s",
              f"{result['vme_mbytes'] / result['fiber_mbytes']:.0%}",
              result["vme_mbytes"] / result["fiber_mbytes"] > 0.7)
    table.check()
