#!/usr/bin/env python3
"""Internet protocols over Nectar — the §6.2.2 planned experiment.

"We plan to experiment with the corresponding Internet protocols (IP,
TCP, and VMTP) over Nectar in the coming year."  This example runs a
real (compact) TCP/IP suite on the CABs: UDP echo, then a TCP transfer
with slow start visible in the congestion window, and compares against
the Nectar-native byte-stream.

Run:  python examples/internet_protocols.py
"""

from repro.inet import IpLayer, TcpLayer, UdpLayer, format_address
from repro.sim import units
from repro.topology import single_hub_system


def main() -> None:
    system = single_hub_system(2)
    alpha, beta = system.cab("cab0"), system.cab("cab1")
    ip_a, ip_b = IpLayer(alpha), IpLayer(beta)
    udp_a, udp_b = UdpLayer(ip_a), UdpLayer(ip_b)
    tcp_a, tcp_b = TcpLayer(ip_a), TcpLayer(ip_b)
    print(f"{alpha.name} is {format_address(ip_a.address)}, "
          f"{beta.name} is {format_address(ip_b.address)}")

    # --- UDP echo ---------------------------------------------------------
    echo_port = udp_b.open(7)
    client = udp_a.open(1234)
    out = {}

    def echo_server():
        datagram = yield from echo_port.receive()
        yield from echo_port.send(datagram["src_cab"],
                                  datagram["src_port"],
                                  data=datagram["data"][::-1])

    def udp_client():
        t0 = system.now
        yield from client.send("cab1", 7, data=b"ping over UDP/IP")
        reply = yield from client.receive()
        out["udp"] = (units.to_us(system.now - t0), reply["data"])
    beta.spawn(echo_server())
    alpha.spawn(udp_client())
    system.run(until=10_000_000)
    rtt, data = out["udp"]
    print(f"\nUDP echo : {data!r}")
    print(f"           round trip {rtt:.1f} µs (incl. 28 B of IP+UDP "
          f"headers each way)")

    # --- TCP transfer -------------------------------------------------------
    listener = tcp_b.listen(5001)
    cwnd_trace = []

    def tcp_server():
        connection = yield from listener.accept()
        result = yield from connection.receive(120_000)
        out["tcp_bytes"] = result["size"]

    def tcp_client():
        connection = yield from tcp_a.connect("cab1", 5001)
        out["connect_at"] = system.now

        def sample_cwnd():
            while connection.snd_una < connection.snd_nxt or \
                    not cwnd_trace:
                cwnd_trace.append((system.now, connection.cwnd))
                yield system.sim.timeout(200_000)
        system.sim.process(sample_cwnd())
        t0 = system.now
        yield from connection.send(bytes(120_000))
        out["tcp_us"] = units.to_us(system.now - t0)
    beta.spawn(tcp_server())
    alpha.spawn(tcp_client())
    system.run(until=1_000_000_000)
    print(f"\nTCP      : {out['tcp_bytes']} bytes in "
          f"{out['tcp_us']:.0f} µs = "
          f"{units.throughput_mbps(120_000, round(out['tcp_us'] * 1000)):.1f} "
          f"Mb/s")
    print("           congestion window growth (slow start → avoidance):")
    for when, cwnd in cwnd_trace[:6]:
        print(f"             t={units.to_us(when):8.0f} µs  "
              f"cwnd={cwnd:6d} B")


if __name__ == "__main__":
    main()
