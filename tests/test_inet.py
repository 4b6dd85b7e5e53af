"""Tests for the Internet-protocol suite over Nectar (§6.2.2 future
work): IP fragmentation/reassembly, UDP, and TCP behaviour."""

import itertools
from dataclasses import replace

import pytest

from repro.config import NectarConfig
from repro.errors import TransportError
from repro.inet import (IP_HEADER_BYTES, TCP_HEADER_BYTES, IpLayer,
                        TcpLayer, UdpLayer, cab_address, format_address)
from repro.inet.ip import pack_ip_header, unpack_ip_header
from repro.inet.tcp import pack_tcp_header, unpack_tcp_header
from repro.topology import single_hub_system


def build_inet(cfg=None, cabs=2):
    system = single_hub_system(cabs, cfg=cfg)
    stacks = [system.cab(f"cab{i}") for i in range(cabs)]
    layers = []
    for stack in stacks:
        ip = IpLayer(stack)
        layers.append((stack, ip, UdpLayer(ip), TcpLayer(ip)))
    return system, layers


class TestHeaders:
    def test_ip_header_roundtrip(self):
        packed = pack_ip_header(cab_address("a"), cab_address("b"),
                                6, 1500, 42, 960, True)
        assert len(packed) == IP_HEADER_BYTES == 20
        parsed = unpack_ip_header(packed)
        assert parsed["protocol"] == 6
        assert parsed["total_length"] == 1500
        assert parsed["id"] == 42
        assert parsed["frag_offset"] == 960
        assert parsed["more_fragments"] is True

    def test_tcp_header_roundtrip(self):
        packed = pack_tcp_header(30000, 80, 12345, 67890, 0x18, 64_000)
        assert len(packed) == TCP_HEADER_BYTES == 20
        parsed = unpack_tcp_header(packed)
        assert parsed == {"src_port": 30000, "dst_port": 80,
                          "seq": 12345, "ack": 67890, "flags": 0x18,
                          "window": 64_000 & 0xFFFF}

    def test_addresses_deterministic_distinct(self):
        a1, a2 = cab_address("cab0"), cab_address("cab1")
        assert a1 == cab_address("cab0")
        assert a1 != a2
        assert format_address(a1).startswith("10.")


class TestUdp:
    def test_roundtrip_with_data(self):
        system, layers = build_inet()
        (_sa, _ipa, udp_a, _tca), (_sb, _ipb, udp_b, _tcb) = layers
        server = udp_b.open(53)
        client = udp_a.open(1111)
        out = {}

        def receiver():
            datagram = yield from server.receive()
            out.update(datagram)
        system.cab("cab1").spawn(receiver())
        system.cab("cab0").spawn(client.send("cab1", 53, data=b"query"))
        system.run(until=10_000_000)
        assert out["data"] == b"query"
        assert out["src_port"] == 1111
        assert out["src_cab"] == "cab0"

    def test_large_datagram_ip_fragmented(self):
        system, layers = build_inet()
        (_sa, ip_a, udp_a, _tca), (_sb, ip_b, udp_b, _tcb) = layers
        server = udp_b.open(53)
        client = udp_a.open(1111)
        body = bytes(range(256)) * 12       # 3072 B > one Nectar packet
        out = {}

        def receiver():
            datagram = yield from server.receive()
            out.update(datagram)
        system.cab("cab1").spawn(receiver())
        system.cab("cab0").spawn(client.send("cab1", 53, data=body))
        system.run(until=50_000_000)
        assert out["data"] == body
        assert ip_a.fragments_created >= 2

    def test_ip_identification_wraps_at_16_bits(self):
        system, layers = build_inet()
        (_sa, ip_a, udp_a, _tca), (_sb, ip_b, udp_b, _tcb) = layers
        ip_a._ip_ids = itertools.count(0xFFFF)
        wire_ids = []
        handle = ip_b.handle

        def recording_handle(packet):
            wire_ids.append(unpack_ip_header(packet.payload.data)["id"])
            return handle(packet)
        ip_b.handle = recording_handle
        server = udp_b.open(53)
        client = udp_a.open(1111)
        got = []

        def receiver():
            for _ in range(2):
                datagram = yield from server.receive()
                got.append(datagram["data"])

        def sender():
            yield from client.send("cab1", 53, data=b"first")
            yield from client.send("cab1", 53, data=b"second")
        system.cab("cab1").spawn(receiver())
        system.cab("cab0").spawn(sender())
        system.run(until=10_000_000)
        assert got == [b"first", b"second"]
        assert wire_ids == [0xFFFF, 0]

    @pytest.mark.parametrize("reuse", ["shorter", "same-size"])
    def test_lost_fragment_expires_before_its_id_comes_round(self, reuse):
        """A partial whose first fragment was lost is gone after the
        reassembly timeout, so the next datagram under the same (wrapped)
        identification arrives intact, not merged with the stale piece."""
        system, layers = build_inet()
        (_sa, ip_a, udp_a, _tca), (_sb, ip_b, udp_b, _tcb) = layers
        timeout_ns = system.cfg.transport.reassembly_timeout_ns
        handle = ip_b.handle

        def drop_first_fragment(packet):
            wire = unpack_ip_header(packet.payload.data)
            if (wire["id"], wire["frag_offset"]) == (7, 0) and not dropped:
                dropped.append(packet)
                return iter(())
            return handle(packet)
        dropped = []
        ip_b.handle = drop_first_fragment
        server = udp_b.open(53)
        client = udp_a.open(1111)
        lost = bytes(range(256)) * 4            # two IP fragments
        fresh = b"fourteen bytes" if reuse == "shorter" \
            else bytes(range(255, -1, -1)) * 4
        got = []

        def receiver():
            datagram = yield from server.receive()
            got.append(datagram)

        def sender():
            ip_a._ip_ids = itertools.count(7)
            yield from client.send("cab1", 53, data=lost)
            yield from system.cab("cab0").kernel.sleep(
                timeout_ns + 100_000_000)
            ip_a._ip_ids = itertools.count(7)
            yield from client.send("cab1", 53, data=fresh)
        system.cab("cab1").spawn(receiver())
        system.cab("cab0").spawn(sender())
        system.run(until=timeout_ns + 200_000_000)
        assert len(dropped) == 1
        assert [(d["data"], d["size"]) for d in got] == [(fresh, len(fresh))]
        assert len(ip_b.reassembly) == 0
        assert ip_b.reassembly.expired == 1

    def test_port_conflict(self):
        _system, layers = build_inet()
        (_s, _ip, udp, _tcp) = layers[0]
        udp.open(9)
        with pytest.raises(TransportError):
            udp.open(9)


class TestTcp:
    def connect_pair(self, cfg=None):
        system, layers = build_inet(cfg=cfg)
        (sa, _ipa, _ua, tcp_a), (sb, _ipb, _ub, tcp_b) = layers
        listener = tcp_b.listen(80)
        state = {}

        def server_accept():
            connection = yield from listener.accept()
            state["server"] = connection
        sb.spawn(server_accept())

        def client_connect():
            connection = yield from tcp_a.connect("cab1", 80)
            state["client"] = connection
        sa.spawn(client_connect())
        system.run(until=200_000_000)
        assert "client" in state and "server" in state
        return system, sa, sb, state["client"], state["server"]

    def test_handshake_establishes_both_ends(self):
        system, sa, sb, client, server = self.connect_pair()
        assert client.state == "ESTABLISHED"
        assert server.state == "ESTABLISHED"

    def test_data_integrity(self):
        system, sa, sb, client, server = self.connect_pair()
        body = bytes(range(251)) * 37     # prime-ish, multi-segment
        out = {}

        def reader():
            result = yield from server.receive(len(body))
            out.update(result)
        sb.spawn(reader())
        sa.spawn(client.send(data=body))
        system.run(until=1_000_000_000)
        assert out["size"] == len(body)
        assert out["data"] == body

    def test_recovers_from_loss(self):
        cfg = NectarConfig(seed=31)
        cfg = replace(cfg, fiber=replace(cfg.fiber, drop_probability=0.1))
        system, sa, sb, client, server = self.connect_pair(cfg=cfg)
        body = bytes(17) * 1000           # 17 KB
        out = {}

        def reader():
            result = yield from server.receive(len(body))
            out.update(result)
        sb.spawn(reader())
        sa.spawn(client.send(data=body))
        system.run(until=120_000_000_000)
        assert out["size"] == len(body)
        assert client.retransmissions > 0

    def test_slow_start_grows_cwnd(self):
        system, sa, sb, client, server = self.connect_pair()
        initial_cwnd = client.cwnd
        out = {}

        def reader():
            result = yield from server.receive(40_000)
            out.update(result)
        sb.spawn(reader())
        sa.spawn(client.send(size=40_000))
        system.run(until=1_000_000_000)
        assert out["size"] == 40_000
        assert client.cwnd > initial_cwnd

    def test_rtt_estimated(self):
        system, sa, sb, client, server = self.connect_pair()
        out = {}

        def reader():
            result = yield from server.receive(5_000)
            out.update(result)
        sb.spawn(reader())
        sa.spawn(client.send(size=5_000))
        system.run(until=1_000_000_000)
        assert client.srtt is not None
        assert client.srtt < 1_000_000      # well under a millisecond

    def test_fin_wakes_blocked_reader(self):
        system, sa, sb, client, server = self.connect_pair()
        out = {}

        def reader():
            result = yield from server.receive(10_000)   # more than sent
            out.update(result)
        sb.spawn(reader())

        def writer():
            yield from client.send(data=b"short")
            yield from client.close()
        sa.spawn(writer())
        system.run(until=1_000_000_000)
        assert out["size"] == 5
        assert server.remote_closed

    def test_connect_to_dead_port_times_out(self):
        system, layers = build_inet()
        (sa, _ipa, _ua, tcp_a) = layers[0]
        failures = {}

        def client():
            try:
                yield from tcp_a.connect("cab1", 4444)   # nobody listens
            except TransportError:
                failures["timeout"] = True
        sa.spawn(client())
        system.run(until=120_000_000_000)
        assert failures.get("timeout")

    def test_mss_fits_nectar_packet(self):
        system, sa, sb, client, server = self.connect_pair()
        cfg = system.cfg.transport
        assert client.mss == (cfg.max_payload_bytes - IP_HEADER_BYTES
                              - TCP_HEADER_BYTES)

    def test_two_connections_demultiplex(self):
        system, layers = build_inet()
        (sa, _ipa, _ua, tcp_a), (sb, _ipb, _ub, tcp_b) = layers
        listener = tcp_b.listen(80)
        got = {}

        def server():
            for index in range(2):
                connection = yield from listener.accept()
                sb.spawn(serve_one(connection, index))

        def serve_one(connection, index):
            result = yield from connection.receive(4)
            got[index] = result["data"]
        sb.spawn(server())

        def client(tag):
            connection = yield from tcp_a.connect("cab1", 80)
            yield from connection.send(data=tag)
        sa.spawn(client(b"AAAA"))
        sa.spawn(client(b"BBBB"))
        system.run(until=1_000_000_000)
        assert sorted(got.values()) == [b"AAAA", b"BBBB"]
