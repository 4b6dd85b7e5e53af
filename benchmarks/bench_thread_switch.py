"""E13 — CAB kernel thread switching (§6.1).

Paper: "Thread switching takes between 10 and 15 microseconds; almost all
of this time is spent saving and restoring the SPARC register windows."
"""

from repro.sim import units
from repro.stats import ExperimentTable
from repro.topology import single_hub_system


def scenario_ping_pong_threads(rounds=50):
    system = single_hub_system(2)
    stack = system.cab("cab0")
    kernel = stack.kernel
    from repro.sim import Broadcast
    ping, pong = Broadcast(system.sim), Broadcast(system.sim)
    timestamps = []

    def player_a():
        for _ in range(rounds):
            pong.fire()
            yield from kernel.wait(ping.wait())
            timestamps.append(system.sim.now)

    def player_b():
        for _ in range(rounds):
            yield from kernel.wait(pong.wait())
            ping.fire()
    stack.spawn(player_b(), name="b")
    stack.spawn(player_a(), name="a")
    system.run(until=1_000_000_000)
    gaps = [b - a for a, b in zip(timestamps, timestamps[1:])]
    # Each gap is exactly two thread switches (a→b and b→a).
    per_switch = sum(gaps) / len(gaps) / 2
    return {"switch_us": units.to_us(per_switch)}


def test_e13_switch_in_10_to_15us():
    result = scenario_ping_pong_threads()
    table = ExperimentTable("E13", "CAB kernel thread context switch")
    table.add("switch time", "10–15 µs", f"{result['switch_us']:.1f} µs",
              10 <= result["switch_us"] <= 15)
    table.check()
