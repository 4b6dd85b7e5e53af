"""E22 — Internet protocols vs Nectar-specific transports (§6.2.2).

The paper planned "to experiment with the corresponding Internet
protocols (IP, TCP, and VMTP) over Nectar in the coming year"; this
bench runs that experiment on the model.  Expected shape: the general
TCP/IP stack pays ~40 B of header per packet plus heavier per-segment
processing and a handshake, so the Nectar-specific transports win on
small-message latency while TCP approaches the same bulk throughput.
"""

from repro.inet import IpLayer, TcpLayer, UdpLayer
from repro.sim import units
from repro.stats import ExperimentTable
from repro.topology import single_hub_system
from repro.workload.experiments import measure_cab_to_cab, measure_throughput


def build():
    system = single_hub_system(2)
    a, b = system.cab("cab0"), system.cab("cab1")
    ip_a, ip_b = IpLayer(a), IpLayer(b)
    return system, a, b, (UdpLayer(ip_a), UdpLayer(ip_b)), \
        (TcpLayer(ip_a), TcpLayer(ip_b))


def scenario_small_message_latency():
    nectar = measure_cab_to_cab(size=64)["latency_us"]
    # UDP over IP over Nectar
    system, a, b, (udp_a, udp_b), _tcp = build()
    server = udp_b.open(7)
    client = udp_a.open(1000)
    state = {}

    def receiver():
        yield from server.receive()
        state["t"] = system.now

    def sender():
        state["t0"] = system.now
        yield from client.send("cab1", 7, size=64)
    b.spawn(receiver())
    a.spawn(sender())
    system.run(until=100_000_000)
    udp = units.to_us(state["t"] - state["t0"])
    return {"nectar_dg_us": nectar, "udp_us": udp,
            "udp_overhead": udp / nectar}


def scenario_bulk_throughput(size=200_000):
    native = measure_throughput(size, protocol="stream")["mbps"]

    # TCP over IP
    system, a, b, _udp, (tcp_a, tcp_b) = build()
    listener = tcp_b.listen(80)
    state = {}

    def tcp_server():
        conn = yield from listener.accept()
        yield from conn.receive(size)
        state["t"] = system.now
    b.spawn(tcp_server())

    def tcp_client():
        conn = yield from tcp_a.connect("cab1", 80)
        state["t0"] = system.now
        yield from conn.send(size=size)
    a.spawn(tcp_client())
    system.run(until=60_000_000_000)
    tcp = units.throughput_mbps(size, state["t"] - state["t0"])
    return {"native_mbps": native, "tcp_mbps": tcp,
            "tcp_fraction": tcp / native}


def test_e22_small_message_generality_tax():
    result = scenario_small_message_latency()
    table = ExperimentTable("E22a", "64 B message: Nectar dg vs UDP/IP")
    table.add("Nectar datagram", "lean headers",
              f"{result['nectar_dg_us']:.1f} µs")
    table.add("UDP over IP over Nectar", "+28 B headers, +IP CPU",
              f"{result['udp_us']:.1f} µs",
              result["udp_us"] > result["nectar_dg_us"])
    table.add("generality tax", "measurable but modest",
              f"{result['udp_overhead']:.2f}×",
              1.0 < result["udp_overhead"] < 2.0)
    table.check()


def scenario_rpc_vs_vmtp(size=2_000):
    from repro.inet import VmtpLayer
    # Native request-response
    system = single_hub_system(2)
    a, b = system.cab("cab0"), system.cab("cab1")
    inbox = b.create_mailbox("svc")

    def server():
        while True:
            request = yield from b.kernel.wait(inbox.get())
            yield from b.transport.rpc.respond(request,
                                               data=request.data)
    b.spawn(server())
    state = {}

    def client():
        state["t0"] = system.now
        yield from a.transport.rpc.request("cab1", "svc",
                                           data=bytes(size))
        state["t"] = system.now
    a.spawn(client())
    system.run(until=60_000_000_000)
    native_us = units.to_us(state["t"] - state["t0"])

    # VMTP transaction
    system, a, b, _udp, _tcp = build()
    v_a = VmtpLayer(a.transport._protocols["ip"])
    v_b = VmtpLayer(b.transport._protocols["ip"])

    def handler(request):
        yield system.sim.timeout(0)
        return request["data"]
    v_b.register_server(7, handler)
    state = {}

    def vmtp_client():
        state["t0"] = system.now
        yield from v_a.transact("cab1", 7, bytes(size))
        state["t"] = system.now
    a.spawn(vmtp_client())
    system.run(until=60_000_000_000)
    vmtp_us = units.to_us(state["t"] - state["t0"])
    return {"native_rpc_us": native_us, "vmtp_us": vmtp_us,
            "vmtp_overhead": vmtp_us / native_us}


def test_e22_vmtp_transaction_vs_native_rpc():
    result = scenario_rpc_vs_vmtp()
    table = ExperimentTable("E22c", "2 KB transaction: native RPC vs VMTP")
    table.add("Nectar request-response", "lean",
              f"{result['native_rpc_us']:.0f} µs")
    table.add("VMTP over IP", "+36 B headers, +VMTP CPU",
              f"{result['vmtp_us']:.0f} µs",
              result["vmtp_us"] > result["native_rpc_us"] * 0.8)
    table.add("relative cost", "same ballpark",
              f"{result['vmtp_overhead']:.2f}×",
              0.8 < result["vmtp_overhead"] < 2.0)
    table.check()


def test_e22_bulk_throughput_tcp_close_to_native():
    result = scenario_bulk_throughput()
    table = ExperimentTable("E22b", "200 KB bulk: byte-stream vs TCP/IP")
    table.add("Nectar byte-stream", "~wire rate",
              f"{result['native_mbps']:.1f} Mb/s")
    table.add("TCP over IP over Nectar", "headers + slow start",
              f"{result['tcp_mbps']:.1f} Mb/s")
    table.add("TCP achieves", "comparable (ack-clocked pipeline)",
              f"{result['tcp_fraction']:.0%}",
              0.7 < result["tcp_fraction"] < 1.25)
    table.check()
