"""Unit tests for the Ethernet baseline (CSMA/CD + kernel stacks)."""

import pytest

from repro.baseline import EthernetLan, LanError
from repro.sim import Simulator, units


@pytest.fixture
def lan(sim):
    network = EthernetLan(sim)
    return network


class TestMedium:
    def test_single_transmission_succeeds(self, sim, lan):
        host = lan.add_host("a")
        peer = lan.add_host("b")
        outcome = {}

        def body():
            ok = yield lan.medium.attempt(10_000)
            outcome["ok"] = ok
        sim.process(body())
        sim.run(until=1_000_000)
        assert outcome["ok"]
        assert lan.medium.frames_carried == 1

    def test_simultaneous_attempts_collide(self, sim, lan):
        outcomes = []

        def body():
            ok = yield lan.medium.attempt(10_000)
            outcomes.append(ok)
        sim.process(body())
        sim.process(body())
        sim.run(until=1_000_000)
        assert outcomes == [False, False]
        assert lan.medium.collisions == 1

    def test_medium_busy_after_start(self, sim, lan):
        def body():
            yield lan.medium.attempt(10_000)
        sim.process(body())
        sim.run(until=100)
        assert lan.medium.busy


class TestStation:
    def test_frame_time_includes_overhead_and_minimum(self, sim, lan):
        host = lan.add_host("a")
        station = host.station
        # 1500 B payload: (1500+26) bytes at 10 Mb/s = 0.8 µs/byte
        assert station.frame_time(1500) == round(1526 * 0.8 * 1000)
        # Tiny payloads are padded to the 64-byte minimum frame.
        assert station.frame_time(1) == round(64 * 0.8 * 1000)

    def test_stations_defer_to_busy_medium(self, sim, lan):
        a, b = lan.add_host("a"), lan.add_host("b")
        order = []

        def send(host, tag):
            yield from host.station.send_frame(
                "b" if tag == "a" else "a", 1000)
            order.append((tag, sim.now))

        def first():
            yield from send(a, "a")

        def second():
            yield sim.timeout(100)    # starts while a transmits
            yield from send(b, "b")
        sim.process(first())
        sim.process(second())
        sim.run(until=60_000_000)
        assert order[0][0] == "a"
        assert order[1][1] > order[0][1]

    def test_unknown_destination_raises(self, sim, lan):
        a = lan.add_host("a")

        def body():
            yield from a.station.send_frame("ghost", 100)
        proc = sim.process(body())
        proc.add_callback(lambda ev: None)
        sim.run(until=10_000_000)
        assert isinstance(proc.value, LanError)


class TestHosts:
    def test_message_roundtrip(self, sim, lan):
        a, b = lan.add_host("a"), lan.add_host("b")
        b.open_port("p")
        result = {}

        def receiver():
            message = yield from b.receive("p")
            result["message"] = message
            result["t"] = sim.now

        def sender():
            result["t0"] = sim.now
            yield from a.send_message("b", "p", 64, data=b"x" * 64)
        sim.process(receiver())
        sim.process(sender())
        sim.run(until=1_000_000_000)
        assert result["message"]["data"] == b"x" * 64

    def test_small_message_latency_near_1ms(self, sim, lan):
        """Refs [3,5,11]: software dominates — hundreds of µs per side."""
        a, b = lan.add_host("a"), lan.add_host("b")
        b.open_port("p")
        result = {}

        def receiver():
            yield from b.receive("p")
            result["t"] = sim.now

        def sender():
            result["t0"] = sim.now
            yield from a.send_message("b", "p", 64)
        sim.process(receiver())
        sim.process(sender())
        sim.run(until=1_000_000_000)
        latency_us = units.to_us(result["t"] - result["t0"])
        assert 500 < latency_us < 2_000

    def test_mtu_fragmentation(self, sim, lan):
        a, b = lan.add_host("a"), lan.add_host("b")
        b.open_port("p")
        result = {}

        def receiver():
            message = yield from b.receive("p")
            result["size"] = message["size"]

        def sender():
            yield from a.send_message("b", "p", 4000)
        sim.process(receiver())
        sim.process(sender())
        sim.run(until=10_000_000_000)
        assert result["size"] == 4000
        assert a.station.frames_sent == 3     # ceil(4000/1500)

    def test_effective_throughput_below_wire_rate(self, sim, lan):
        a, b = lan.add_host("a"), lan.add_host("b")
        b.open_port("p")
        result = {}

        def receiver():
            message = yield from b.receive("p")
            result["t"] = sim.now

        def sender():
            result["t0"] = sim.now
            yield from a.send_message("b", "p", 150_000)
        sim.process(receiver())
        sim.process(sender())
        sim.run(until=600_000_000_000)
        mbps = units.throughput_mbps(150_000, result["t"] - result["t0"])
        assert mbps < 10.0          # never beats the wire
        assert mbps > 2.0           # but the stack isn't pathological

    def test_contention_backoff_resolves(self, sim):
        lan = EthernetLan(sim)
        hosts = [lan.add_host(f"h{i}") for i in range(4)]
        sink = lan.add_host("sink")
        sink.open_port("p")
        done = []

        def receiver():
            for _ in range(4):
                yield from sink.receive("p")
            done.append(sim.now)

        def sender(host):
            yield from host.send_message("sink", "p", 1000)
        sim.process(receiver())
        for host in hosts:
            sim.process(sender(host))
        sim.run(until=60_000_000_000)
        assert done                          # everyone got through
        assert lan.medium.collisions >= 1    # but they did collide

    def test_duplicate_host_rejected(self, sim, lan):
        lan.add_host("a")
        with pytest.raises(LanError):
            lan.add_host("a")

    def test_duplicate_port_rejected(self, sim, lan):
        host = lan.add_host("a")
        host.open_port("p")
        with pytest.raises(LanError):
            host.open_port("p")
