"""E15 — CAB data-memory bandwidth under concurrent access (§5.2).

Paper: "the total bandwidth of the data memory is 66 megabytes/second,
sufficient to support the following concurrent accesses: CPU reads or
writes, DMA to the outgoing fiber, DMA from the incoming fiber, and DMA
to or from VME memory."

The ablation shrinks the pool to show when streams would start to starve.
"""

from dataclasses import replace

from repro.config import VME_BYTES_PER_NS
from repro.hardware.memory import BandwidthPool
from repro.sim import Simulator, units
from repro.stats import ExperimentTable


def scenario_concurrent_streams(pool_mbytes=66.0, num_bytes=500_000):
    sim = Simulator()
    pool = BandwidthPool(sim, units.megabytes_per_second(pool_mbytes))
    fiber = units.megabits_per_second(100.0)
    vme = VME_BYTES_PER_NS
    cpu = units.megabytes_per_second(20.0)   # CPU load/store stream
    finish = {}

    def stream(name, rate):
        def body():
            start = sim.now
            yield from pool.transfer(num_bytes, rate)
            finish[name] = sim.now - start
        return body
    for name, rate in (("fiber_out", fiber), ("fiber_in", fiber),
                       ("vme", vme), ("cpu", cpu)):
        sim.process(stream(name, rate)())
    sim.run(until=600_000_000_000)
    nominal = {
        "fiber_out": units.transfer_time(num_bytes, fiber),
        "fiber_in": units.transfer_time(num_bytes, fiber),
        "vme": units.transfer_time(num_bytes, vme),
        "cpu": units.transfer_time(num_bytes, cpu),
    }
    slowdowns = {name: finish[name] / nominal[name] for name in finish}
    return {"max_slowdown": max(slowdowns.values()),
            "demand_mbytes": (2 * 12.5 + 10 + 20)}


def test_e15_66mbytes_sustains_all_streams():
    result = scenario_concurrent_streams()
    table = ExperimentTable("E15", "Data memory: 4 concurrent streams")
    table.add("total demand", "55 MB/s (< 66 MB/s)",
              f"{result['demand_mbytes']:.0f} MB/s", True)
    table.add("worst stream slowdown", "1.0× (no starvation)",
              f"{result['max_slowdown']:.2f}×",
              result["max_slowdown"] <= 1.01)
    table.check()


def test_e15_ablation_small_pool_starves():
    result = scenario_concurrent_streams(pool_mbytes=30.0)
    table = ExperimentTable("E15-ablation",
                            "Same streams on a 30 MB/s memory")
    table.add("worst stream slowdown", "> 1.5× (oversubscribed)",
              f"{result['max_slowdown']:.2f}×",
              result["max_slowdown"] > 1.5)
    table.check()
