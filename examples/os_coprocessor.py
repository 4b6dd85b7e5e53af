#!/usr/bin/env python3
"""The CAB as an operating-system co-processor (§7).

Runs the two distributed-systems workloads the paper names — Camelot-
style transactions and Mach-style shared virtual memory — on one Nectar
installation and prints the latencies that made a low-latency network
interesting to those systems.

Run:  python examples/os_coprocessor.py
"""

from repro.apps import (SharedVirtualMemory, TransactionAborted,
                        TransactionManager)
from repro.topology import single_hub_system


def demo_transactions() -> None:
    system = single_hub_system(8)
    manager = TransactionManager(
        system, [system.cab(f"cab{i}") for i in range(4)])
    done = {}

    rng = system.cfg.rng_stream("tellers")

    def teller(tag, attempts):
        def body(coordinator):
            kernel = coordinator.task.location.kernel
            commits = aborts = 0
            for index in range(attempts):
                try:
                    yield from coordinator.execute({
                        f"account{tag}": index * 10,
                        "branch_total": index,      # the hot key
                    })
                    commits += 1
                except TransactionAborted:
                    aborts += 1
                # Jittered pacing so no teller is persistently unlucky.
                yield from kernel.sleep(rng.randrange(50_000, 250_000))
            done[tag] = (commits, aborts)
        return body
    for tag in range(3):
        manager.coordinator(f"teller{tag}",
                            system.cab(f"cab{4 + tag}")).run(
            teller(tag, 6))
    system.run(until=120_000_000_000)
    print("Camelot-style transactions (3 tellers × 6 txns, one hot key):")
    for tag in sorted(done):
        commits, aborts = done[tag]
        print(f"  teller{tag}: {commits} committed, {aborts} aborted "
              f"(conflict)")
    print(f"  commit latency mean : "
          f"{manager.commit_latency.mean_us:.0f} µs")
    print(f"  commit latency p95  : "
          f"{manager.commit_latency.p(0.95) / 1000:.0f} µs")


def demo_dsm() -> None:
    system = single_hub_system(4)
    dsm = SharedVirtualMemory(
        system, [system.cab(f"cab{i}") for i in range(4)], num_pages=32)
    finished = {}

    def worker(index):
        node = dsm.node(index)

        def body():
            for round_index in range(10):
                page = (index * 5 + round_index) % 32
                if round_index % 3 == 0:
                    yield from node.write(page)
                else:
                    yield from node.read(page)
            finished[index] = True
        return body
    for index in range(4):
        system.cab(f"cab{index}").spawn(worker(index)())
    system.run(until=120_000_000_000)
    assert len(finished) == 4
    print("\nMach-style shared virtual memory (4 nodes, 32 pages):")
    print(f"  faults              : {dsm.total_faults} "
          f"({dsm.invalidations} invalidations)")
    print(f"  read fault latency  : "
          f"{dsm.read_fault_latency.mean_us:.0f} µs "
          f"(fetch a 1 KB page via 2 RPCs)")
    print(f"  write fault latency : "
          f"{dsm.write_fault_latency.mean_us:.0f} µs "
          f"(invalidate copyset + ownership transfer)")
    hits = sum(n.read_hits + n.write_hits for n in dsm.nodes)
    print(f"  cache hits          : {hits}")


if __name__ == "__main__":
    demo_transactions()
    demo_dsm()
