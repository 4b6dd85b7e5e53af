"""E10 — Figure 7 circuit switching: CAB3 → CAB1 (§4.2.1).

Reproduces the worked example: the command packet "open with retry HUB2
P8 / open with retry and reply HUB1 P8" opens the route, the reply
returns over the reverse path, then data flows and "close all" tears the
circuit down behind it.
"""

from repro.sim import units
from repro.stats import ExperimentTable
from repro.topology import figure7_system


def scenario_fig7_circuit(payload_bytes=4096):
    system = figure7_system()
    src, dst = system.cab("CAB3"), system.cab("CAB1")
    inbox = dst.create_mailbox("inbox")
    state = {}

    def receiver():
        message = yield from dst.kernel.wait(inbox.get())
        state["t"] = system.now
        state["size"] = message.size

    def sender():
        state["t0"] = system.now
        yield from src.transport.datagram.send("CAB1", "inbox",
                                               size=payload_bytes,
                                               mode="circuit")
    dst.spawn(receiver())
    src.spawn(sender())
    system.run(until=1_000_000_000)
    hub1, hub2 = system.hub("HUB1"), system.hub("HUB2")
    return {
        "latency_us": units.to_us(state["t"] - state["t0"]),
        "delivered_bytes": state["size"],
        "hub2_opens": hub2.counters.get("opens_ok", 0),
        "hub1_opens": hub1.counters.get("opens_ok", 0),
        "hub1_replies": hub1.counters.get("replies_sent", 0),
        "residual_connections": hub1.crossbar.connection_count
        + hub2.crossbar.connection_count,
    }


def test_e10_circuit_example():
    result = scenario_fig7_circuit()
    table = ExperimentTable("E10", "Fig 7 circuit: CAB3 → CAB1, 4 KB")
    table.add("route opened via HUB2 then HUB1", "1 open per HUB",
              f"{result['hub2_opens']}/{result['hub1_opens']}",
              result["hub2_opens"] == 1 and result["hub1_opens"] == 1)
    table.add("reply from last HUB (HUB1)", "1",
              str(result["hub1_replies"]), result["hub1_replies"] == 1)
    table.add("data delivered", "4096 B", f"{result['delivered_bytes']} B",
              result["delivered_bytes"] == 4096)
    table.add("close all tore circuit down", "0 residual connections",
              str(result["residual_connections"]),
              result["residual_connections"] == 0)
    table.add("end-to-end time", "setup ≪ transfer",
              f"{result['latency_us']:.0f} µs",
              result["latency_us"] < 600)
    table.check()
