"""E21 — the iPSC library on Nectarine (§7).

"To run hypercube applications on Nectar, we have implemented the Intel
iPSC communication library on top of Nectarine."  The bench runs a
hypercube all-reduce and a neighbour exchange on 8 ranks.
"""

from repro.ipsc import IpscLibrary
from repro.nectarine import NectarineRuntime
from repro.sim import units
from repro.stats import ExperimentTable
from repro.topology import single_hub_system


def scenario_hypercube(ranks=8, payload=512):
    system = single_hub_system(ranks)
    runtime = NectarineRuntime(system)
    library = IpscLibrary(runtime,
                          [system.cab(f"cab{i}") for i in range(ranks)])
    done = {}

    def body(p):
        start = system.now
        total = yield from p.gisum(p.mynode())
        yield from p.gsync()
        # neighbour exchange along dimension 0
        partner = p.mynode() ^ 1
        yield from p.csend(99, bytes(payload), partner)
        yield from p.crecv(99)
        done[p.mynode()] = (system.now - start, total)
    library.start_all(body)
    system.run(until=10_000_000_000)
    assert len(done) == ranks
    expected = sum(range(ranks))
    return {
        "all_correct": all(total == expected
                           for _t, total in done.values()),
        "max_elapsed_us": units.to_us(max(t for t, _ in done.values())),
    }


def test_e21_hypercube_exchange():
    result = scenario_hypercube()
    table = ExperimentTable("E21", "iPSC on Nectarine: 8-rank hypercube")
    table.add("gisum result on every rank", "28 (0+…+7)",
              "correct" if result["all_correct"] else "WRONG",
              result["all_correct"])
    table.add("all-reduce + barrier + exchange", "sub-millisecond",
              f"{result['max_elapsed_us']:.0f} µs",
              result["max_elapsed_us"] < 2_000)
    table.check()
