"""E6 — aggregate bandwidth of one HUB (Abstract, §1).

Paper: "a star-shaped fiber-optic network with an aggregate bandwidth of
1.6 gigabits/second" — 16 ports × 100 Mb/s.  Scenario: 16 CABs in a ring,
everyone transmitting at once through the crossbar; the sum of achieved
rates should approach 1.6 Gb/s.
"""

from repro.sim import units
from repro.stats import ExperimentTable
from repro.topology import single_hub_system


def scenario_ring_all_to_all(message_bytes=200_000):
    system = single_hub_system(16)
    names = [f"cab{i}" for i in range(16)]
    finish = {}

    for index, name in enumerate(names):
        dst = names[(index + 1) % 16]
        receiver_stack = system.cab(dst)
        receiver_stack.create_mailbox(f"from-{name}")

    def make_receiver(stack, mailbox_name, key):
        def body():
            yield from stack.kernel.wait(
                stack.transport.mailbox(mailbox_name).get())
            finish[key] = system.now
        return body

    def make_sender(stack, dst, mailbox_name):
        def body():
            yield from stack.transport.datagram.send(
                dst, mailbox_name, size=message_bytes, mode="circuit")
        return body

    for index, name in enumerate(names):
        dst = names[(index + 1) % 16]
        receiver_stack = system.cab(dst)
        receiver_stack.spawn(
            make_receiver(receiver_stack, f"from-{name}", name)(),
            name=f"rx-{name}")
        system.cab(name).spawn(
            make_sender(system.cab(name), dst, f"from-{name}")(),
            name=f"tx-{name}")
    system.run(until=300_000_000)
    elapsed = max(finish.values())
    total_bytes = 16 * message_bytes
    return {
        "aggregate_mbps": units.throughput_mbps(total_bytes, elapsed),
        "completed": len(finish),
    }


def test_e6_sixteen_ports_at_line_rate():
    result = scenario_ring_all_to_all()
    table = ExperimentTable("E6", "Single-HUB aggregate bandwidth")
    table.add("concurrent transfers", "16", str(result["completed"]),
              result["completed"] == 16)
    table.add("aggregate throughput", "1.6 Gb/s (16 × 100 Mb/s)",
              f"{result['aggregate_mbps'] / 1000:.2f} Gb/s",
              result["aggregate_mbps"] > 1_400)
    table.check()
