"""E8 — crossbar versus shared medium under contention (§3.1).

Paper: "the use of crossbar switches substantially reduces network
contention."  Scenario: N disjoint pairs all communicating at once.  On
the crossbar every pair gets its own path; on the shared Ethernet they
serialise (and collide).
"""

from repro.baseline import EthernetLan
from repro.config import NectarConfig
from repro.sim import Simulator
from repro.stats import ExperimentTable
from repro.workload.experiments import measure_disjoint_pairs


def nectar_pairs(num_pairs, message_bytes):
    return measure_disjoint_pairs(num_pairs, message_bytes)["elapsed_ns"]


def ethernet_pairs(num_pairs, message_bytes):
    cfg = NectarConfig()
    sim = Simulator()
    lan = EthernetLan(sim, rng=cfg.rng_stream("contention"))
    finish = {}
    for pair in range(num_pairs):
        lan.add_host(f"src{pair}")
        lan.add_host(f"dst{pair}")
        lan.hosts[f"dst{pair}"].open_port("p")

    def make_receiver(host, key):
        def body():
            yield from host.receive("p")
            finish[key] = sim.now
        return body

    def make_sender(host, dst):
        def body():
            yield from host.send_message(dst, "p", message_bytes)
        return body

    for pair in range(num_pairs):
        sim.process(make_receiver(lan.hosts[f"dst{pair}"], pair)())
        sim.process(make_sender(lan.hosts[f"src{pair}"], f"dst{pair}")())
    sim.run(until=600_000_000_000)
    assert len(finish) == num_pairs
    return max(finish.values()), lan.medium.collisions


def scenario_contention(num_pairs=6, message_bytes=50_000):
    solo_nectar = nectar_pairs(1, message_bytes)
    many_nectar = nectar_pairs(num_pairs, message_bytes)
    solo_eth, _c0 = ethernet_pairs(1, message_bytes)
    many_eth, collisions = ethernet_pairs(num_pairs, message_bytes)
    return {
        "nectar_slowdown": many_nectar / solo_nectar,
        "ethernet_slowdown": many_eth / solo_eth,
        "ethernet_collisions": collisions,
    }


def test_e8_crossbar_reduces_contention():
    result = scenario_contention()
    table = ExperimentTable("E8", "6 disjoint pairs, 50 KB each")
    table.add("crossbar slowdown (6 pairs vs 1)", "~1× (no contention)",
              f"{result['nectar_slowdown']:.2f}×",
              result["nectar_slowdown"] < 1.3)
    table.add("shared-medium slowdown", "~N× (serialised)",
              f"{result['ethernet_slowdown']:.2f}×",
              result["ethernet_slowdown"] > 3)
    table.add("ethernet collisions", "> 0", str(result["ethernet_collisions"]),
              result["ethernet_collisions"] > 0)
    table.check()
