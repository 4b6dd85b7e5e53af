"""E1 + E3 — HUB switching latency (§4 goal 1, §2.3).

Paper: connection setup + first byte through one HUB = 10 cycles
(700 ns); established-connection byte latency = 5 cycles (350 ns);
connection through a single HUB under 1 µs.
"""

from repro.hardware import CommandOp, HubCommand, Packet, Payload
from repro.stats import ExperimentTable
from repro.workload.experiments import (hop_ns, hub_timing_rig,
                                        measure_hub_setup)


def scenario_transfer_latency():
    cfg, sim, hub, src, dst, heads = hub_timing_rig()
    src.transmit(Packet("src",
                        commands=[HubCommand(CommandOp.OPEN, "hub0", 1,
                                             origin="src")]))
    sim.run(until=1_000_000)
    start = sim.now
    src.transmit(Packet("src", payload=Payload(1, data=b"y"),
                        header_bytes=0))
    sim.run(until=start + 1_000_000)
    transfer_ns = (heads[0] - start) - 2 * hop_ns(cfg)
    return {"transfer_ns": transfer_ns}


def scenario_connection_confirmation():
    cfg, sim, hub, src, dst, heads = hub_timing_rig()
    command = HubCommand(CommandOp.OPEN_RETRY_REPLY, "hub0", 1,
                         origin="src")
    reply_event = src.expect_reply(command.seq)
    arrival = {}
    reply_event.add_callback(lambda _ev: arrival.setdefault("t", sim.now))
    src.transmit(Packet("src", commands=[command]))
    sim.run(until=1_000_000)
    reply_hop = cfg.fiber.propagation_ns + 3 * round(cfg.fiber.ns_per_byte)
    internal_ns = arrival["t"] - hop_ns(cfg) - reply_hop
    return {"confirm_ns": internal_ns}


def test_e1_connection_setup_700ns():
    result = measure_hub_setup()
    table = ExperimentTable("E1", "HUB connection setup + first byte")
    table.add("setup + first byte", "700 ns (10 cycles)",
              f"{result['setup_ns']} ns", result["setup_ns"] == 700)
    table.check()


def test_e1_established_transfer_350ns():
    result = scenario_transfer_latency()
    table = ExperimentTable("E1", "Established-connection byte latency")
    table.add("per-byte latency", "350 ns (5 cycles)",
              f"{result['transfer_ns']} ns", result["transfer_ns"] == 350)
    table.check()


def test_e3_connection_under_1us():
    result = scenario_connection_confirmation()
    table = ExperimentTable("E3", "Single-HUB connection confirmation")
    table.add("connect + reply (HUB-internal)", "< 1 µs",
              f"{result['confirm_ns']} ns", result["confirm_ns"] < 1_000)
    table.check()
