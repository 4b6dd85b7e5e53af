"""E18 — the three transport protocols (§6.2.2).

Datagram (lowest overhead, no guarantee) vs byte-stream (reliable,
windowed) vs request-response (RPC), plus reliability under injected
loss: datagrams lose messages, byte-streams deliver everything.
"""

from dataclasses import replace

from repro.config import NectarConfig
from repro.sim import units
from repro.stats import ExperimentTable
from repro.topology import single_hub_system
from repro.workload.experiments import timed_send


def one_way(protocol, size=64, cfg=None):
    system = single_hub_system(2, cfg=cfg)
    return units.to_us(timed_send(system, system.cab("cab0"),
                                  system.cab("cab1"), size, protocol))


def rpc_round_trip(size=64):
    system = single_hub_system(2)
    a, b = system.cab("cab0"), system.cab("cab1")
    inbox = b.create_mailbox("svc")

    def server():
        while True:
            request = yield from b.kernel.wait(inbox.get())
            yield from b.transport.rpc.respond(request, size=size)
    b.spawn(server())
    state = {}

    def client():
        state["t0"] = system.now
        yield from a.transport.rpc.request("cab1", "svc", size=size)
        state["t"] = system.now
    a.spawn(client())
    system.run(until=1_000_000_000)
    return units.to_us(state["t"] - state["t0"])


def reliability_under_loss(drop=0.2, messages=20):
    cfg = NectarConfig(seed=23)
    cfg = cfg.with_overrides(fiber=replace(cfg.fiber,
                                           drop_probability=drop))
    system = single_hub_system(2, cfg=cfg)
    a, b = system.cab("cab0"), system.cab("cab1")
    dg_box = b.create_mailbox("dg")
    bs_box = b.create_mailbox("bs")
    received = {"dg": 0, "bs": 0}

    def counter(box, key):
        def body():
            while True:
                yield from b.kernel.wait(box.get())
                received[key] += 1
        return body
    b.spawn(counter(dg_box, "dg")())
    b.spawn(counter(bs_box, "bs")())
    connection = a.transport.stream.connect("cab1", "bs")

    def sender():
        for _ in range(messages):
            yield from a.transport.datagram.send("cab1", "dg", size=64)
        for _ in range(messages):
            yield from connection.send(size=64)
    a.spawn(sender())
    system.run(until=120_000_000_000)
    return received


def test_e18_protocol_overhead_ordering():
    result = {
        "datagram_us": one_way("datagram"),
        "stream_us": one_way("stream"),
        "rpc_rtt_us": rpc_round_trip(),
    }
    table = ExperimentTable("E18a", "Per-protocol cost (64 B)")
    table.add("datagram one-way", "lowest overhead",
              f"{result['datagram_us']:.1f} µs", True)
    table.add("byte-stream one-way", "+ ack/window cost",
              f"{result['stream_us']:.1f} µs",
              result["stream_us"] >= result["datagram_us"])
    table.add("request-response round trip", "~2× one-way + server",
              f"{result['rpc_rtt_us']:.1f} µs",
              result["rpc_rtt_us"] > result["datagram_us"] * 1.5)
    table.check()


def test_e18_reliability_under_loss():
    result = reliability_under_loss()
    table = ExperimentTable("E18b", "20 messages at 20% packet loss")
    table.add("datagram delivered", "< 20 (no recovery)",
              str(result["dg"]), result["dg"] < 20)
    table.add("byte-stream delivered", "20 (retransmission)",
              str(result["bs"]), result["bs"] == 20)
    table.check()
