#!/usr/bin/env python3
"""Quickstart: build a Nectar system, send messages three ways.

Builds the prototype configuration (one 16-port HUB, two CABs with Sun
nodes), then demonstrates the three transport protocols of §6.2.2 and
prints the latencies against the paper's §2.3 goals.

Run:  python examples/quickstart.py
"""

from repro.config import NectarConfig
from repro.sim import units
from repro.system import NectarSystem


def main() -> None:
    cfg = NectarConfig()
    system = NectarSystem(cfg)
    hub = system.add_hub("hub0")
    alpha = system.add_cab("alpha", hub)
    beta = system.add_cab("beta", hub)
    system.add_node("sun3-a", alpha)
    system.add_node("sun3-b", beta)
    system.finalize()

    inbox = beta.create_mailbox("inbox")
    service = beta.create_mailbox("service")
    results = {}

    # --- receiver thread on CAB beta -------------------------------------
    def receiver():
        for expected in ("datagram", "stream"):
            message = yield from beta.kernel.wait(inbox.get())
            results[expected] = (system.now, message)

    # --- an RPC server thread on CAB beta --------------------------------
    def server():
        request = yield from beta.kernel.wait(service.get())
        yield from beta.transport.rpc.respond(request,
                                              data=request.data[::-1])

    # --- sender thread on CAB alpha ---------------------------------------
    def sender():
        # 1. Unreliable datagram (lowest overhead).
        t0 = system.now
        yield from alpha.transport.datagram.send("beta", "inbox",
                                                 data=b"hello, nectar!")
        results["datagram_sent"] = t0

        # 2. Reliable byte-stream (sliding window, acks).
        connection = alpha.transport.stream.connect("beta", "inbox")
        t0 = system.now
        yield from connection.send(data=b"reliable bytes" * 100)
        results["stream_sent"] = t0

        # 3. Request-response (RPC).
        t0 = system.now
        response = yield from alpha.transport.rpc.request(
            "beta", "service", data=b"ping")
        results["rpc"] = (system.now - t0, response.data)

    beta.spawn(receiver(), name="receiver")
    beta.spawn(server(), name="server")
    alpha.spawn(sender(), name="sender")
    system.run(until=units.ms(100))

    dg_time, dg_msg = results["datagram"]
    print(f"datagram : {dg_msg.data!r}")
    print(f"           one-way latency "
          f"{units.to_us(dg_time - results['datagram_sent']):6.1f} µs "
          f"(goal: < 30 µs CAB-to-CAB, §2.3)")
    st_time, st_msg = results["stream"]
    print(f"stream   : {st_msg.size} bytes delivered reliably in "
          f"{units.to_us(st_time - results['stream_sent']):6.1f} µs")
    rpc_time, rpc_data = results["rpc"]
    print(f"rpc      : {rpc_data!r} round trip "
          f"{units.to_us(rpc_time):6.1f} µs")
    print(f"\nsimulated time elapsed: {units.to_ms(system.now):.3f} ms")
    hub_counters = dict(system.hub('hub0').counters)
    print(f"hub activity: {hub_counters}")


if __name__ == "__main__":
    main()
