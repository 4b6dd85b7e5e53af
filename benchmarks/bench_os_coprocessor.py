"""E24 — the CAB as an operating-system co-processor (§7).

"Examples of such applications include distributed transaction systems,
such as Camelot, and the simulation of shared virtual memory over a
distributed system using Mach.  In these applications, the CAB will play
a critical role as an operating system co-processor."

Both workloads live or die on small-message latency: a DSM page fault is
2–3 RPCs plus a 1 KB page transfer; a 2PC commit is 2 RPC rounds per
participant.  The bench measures both on Nectar.
"""

from repro.apps import SharedVirtualMemory, TransactionManager
from repro.sim import units
from repro.stats import ExperimentTable
from repro.topology import single_hub_system


def scenario_dsm(nodes=4, rounds=8):
    system = single_hub_system(nodes)
    dsm = SharedVirtualMemory(
        system, [system.cab(f"cab{i}") for i in range(nodes)],
        num_pages=32)
    finished = {}

    def body(index):
        node = dsm.node(index)

        def runner():
            for round_index in range(rounds):
                page = (index * 7 + round_index * 3) % 32
                if (index + round_index) % 3 == 0:
                    yield from node.write(page)
                else:
                    yield from node.read(page)
            finished[index] = True
        return runner
    for index in range(nodes):
        system.cab(f"cab{index}").spawn(body(index)())
    system.run(until=120_000_000_000)
    assert len(finished) == nodes
    return {
        "read_fault_us": dsm.read_fault_latency.mean_us
        if dsm.read_fault_latency.count else 0.0,
        "write_fault_us": dsm.write_fault_latency.mean_us
        if dsm.write_fault_latency.count else 0.0,
        "faults": dsm.total_faults,
        "invalidations": dsm.invalidations,
    }


def scenario_transactions(participants):
    system = single_hub_system(participants + 1)
    manager = TransactionManager(
        system, [system.cab(f"cab{i}") for i in range(participants)])
    coordinator = manager.coordinator(
        "bench", system.cab(f"cab{participants}"))

    def body(coord):
        for index in range(6):
            writes = {f"key{p}_{index}": index
                      for p in range(participants)}
            yield from coord.execute(writes)
    coordinator.run(body)
    system.run(until=120_000_000_000)
    assert manager.commits == 6
    return manager.commit_latency.mean_us


def test_e24_dsm_page_faults():
    result = scenario_dsm()
    table = ExperimentTable("E24a", "Mach-style DSM over Nectar")
    table.add("read fault (fetch 1 KB page)", "a few RPCs ≈ 100-300 µs",
              f"{result['read_fault_us']:.0f} µs",
              result["read_fault_us"] < 1_000)
    table.add("write fault (invalidate + own)", "higher than read",
              f"{result['write_fault_us']:.0f} µs",
              result["write_fault_us"] > result["read_fault_us"] * 0.8)
    table.add("coherence traffic", "-",
              f"{result['faults']} faults, "
              f"{result['invalidations']} invalidations")
    table.check()


def test_e24_commit_latency_vs_participants():
    latencies = {n: scenario_transactions(n) for n in (1, 2, 4)}
    table = ExperimentTable("E24b", "Camelot-style 2PC commit latency")
    for n, latency in sorted(latencies.items()):
        table.add(f"{n} participant(s)", "grows with participants",
                  f"{latency:.0f} µs", latency < 2_000)
    assert latencies[1] < latencies[4]
    table.check()
