"""Paper probes: the design targets of §2.3/§4, measured on unloaded systems.

The paper states design goals, not hardware measurements, so each probe
is a target-met check, not an error figure.  All five are exact (pure
simulated time, no randomness) and run in a few hundred milliseconds.
"""

from __future__ import annotations

from repro.config import NectarConfig
from repro.hardware import (CabBoard, CommandOp, Hub, HubCommand, Packet,
                            Payload, wire_cab_to_hub)
from repro.nodeiface import SharedMemoryInterface
from repro.sim import Simulator, units
from repro.topology import linear_system, single_hub_system

__all__ = ["PAPER_BOUNDS", "paper_probes", "missed_bounds"]

#: ``name -> (relation, bound)`` as the paper states them.
PAPER_BOUNDS = {
    "model.hub_setup_ns": ("==", 700),
    "model.cab_to_cab_us": ("<", 30),
    "model.node_to_node_us": ("<", 100),
    "model.fiber_mbps": (">", 90),
    "model.extra_hub_hop_ns": ("<", 3000),
}


def _hub_setup_ns() -> int:
    """Connection set-up + first byte through one HUB (10 cycles)."""
    cfg = NectarConfig()
    sim = Simulator()
    hub = Hub(sim, "hub0", cfg.hub, cfg.fiber)
    src = CabBoard(sim, "src", cfg.cab, cfg.fiber)
    dst = CabBoard(sim, "dst", cfg.cab, cfg.fiber)
    wire_cab_to_hub(sim, src, hub, 0)
    wire_cab_to_hub(sim, dst, hub, 1)
    heads = []

    def sink(packet, size, head, tail):
        heads.append(head)
        dst.signal_input_drained()
        yield sim.timeout(0)

    dst.on_receive(sink)
    src.on_receive(lambda *args: iter(()))
    src.transmit(Packet(
        "src", commands=[HubCommand(CommandOp.OPEN, "hub0", 1,
                                    origin="src")],
        payload=Payload(1, data=b"x"), header_bytes=0))
    sim.run(until=1_000_000)
    hop = cfg.fiber.propagation_ns + round(cfg.fiber.ns_per_byte)
    return heads[0] - 2 * hop


def _one_message_ns(system, src, dst, size: int) -> int:
    """Simulated ns from a CAB thread's send to the receiver's wake-up."""
    inbox = dst.create_mailbox("inbox")
    times = {}

    def receiver():
        yield from dst.kernel.wait(inbox.get())
        times["end"] = system.now

    def sender():
        times["start"] = system.now
        yield from src.transport.datagram.send(dst.name, "inbox", size=size)

    dst.spawn(receiver())
    src.spawn(sender())
    system.run(until=1_000_000_000)
    return times["end"] - times["start"]


def _cab_to_cab_ns(size: int = 32) -> int:
    system = single_hub_system(2)
    return _one_message_ns(system, system.cab("cab0"), system.cab("cab1"),
                           size)


def _node_to_node_ns() -> int:
    system = single_hub_system(2, with_nodes=True)
    cab0, cab1 = system.cab("cab0"), system.cab("cab1")
    shm0, shm1 = SharedMemoryInterface(cab0), SharedMemoryInterface(cab1)
    inbox = cab1.create_mailbox("inbox")
    times = {}

    def receiver():
        yield from shm1.receive(inbox)
        times["end"] = system.now

    def sender():
        times["start"] = system.now
        yield from shm0.send("cab1", "inbox", size=32)

    system.node("node1").run(receiver(), "rx")
    system.node("node0").run(sender(), "tx")
    system.run(until=100_000_000)
    return times["end"] - times["start"]


def _chain_ns(hubs: int) -> int:
    system = linear_system(hubs, cabs_per_hub=2)
    return _one_message_ns(system, system.cab("cab0_0"),
                           system.cab(f"cab{hubs - 1}_1"), 32)


def paper_probes() -> dict[str, float]:
    """Measure the five ``model.*`` figures."""
    return {
        "model.hub_setup_ns": _hub_setup_ns(),
        "model.cab_to_cab_us": units.to_us(_cab_to_cab_ns()),
        "model.node_to_node_us": units.to_us(_node_to_node_ns()),
        "model.fiber_mbps": units.throughput_mbps(
            500_000, _cab_to_cab_ns(size=500_000)),
        "model.extra_hub_hop_ns": (_chain_ns(4) - _chain_ns(1)) / 3,
    }


def missed_bounds(values: dict[str, float]) -> list[str]:
    """One line per paper target the measured value does not meet."""
    checks = {"==": lambda a, b: a == b, "<": lambda a, b: a < b,
              ">": lambda a, b: a > b}
    return [f"{name} = {values[name]} (paper: {relation} {bound})"
            for name, (relation, bound) in PAPER_BOUNDS.items()
            if not checks[relation](values[name], bound)]
