"""Integration tests for the three CAB-node interfaces (§6.2.3)."""

import pytest

from repro.config import KERNEL_PROTOCOL_NS
from repro.errors import NodeError
from repro.nodeiface import (NetworkDriverInterface, SharedMemoryInterface,
                             SocketInterface)
from repro.sim import units
from repro.topology import single_hub_system


def exchange_shared_memory(size, pipeline=True):
    system = single_hub_system(4, with_nodes=True)
    a, b = system.cab("cab0"), system.cab("cab1")
    shm_a, shm_b = SharedMemoryInterface(a), SharedMemoryInterface(b)
    inbox = b.create_mailbox("inbox")
    result = {}

    def receiver():
        message = yield from shm_b.receive(inbox)
        result["t"] = system.now
        result["message"] = message

    def sender():
        result["t0"] = system.now
        yield from shm_a.send("cab1", "inbox", size=size,
                              pipeline=pipeline)
        result["sent"] = system.now
    system.node("node1").run(receiver(), "rx")
    system.node("node0").run(sender(), "tx")
    system.run(until=60_000_000_000)
    return system, result


class TestSharedMemory:
    def test_small_message_delivered(self):
        _system, result = exchange_shared_memory(64)
        assert result["message"].size == 64

    def test_latency_under_100us(self):
        """§2.3: node-process to node-process under 100 µs."""
        _system, result = exchange_shared_memory(64)
        assert units.to_us(result["t"] - result["t0"]) < 100

    def test_no_node_syscalls(self):
        """§6.2.3: no system calls are required during communication."""
        system, _result = exchange_shared_memory(64)
        assert system.node("node0").syscalls == 0
        assert system.node("node1").syscalls == 0

    def test_pipeline_beats_store_and_forward(self):
        """§6.2.2: overlapping VME and fiber transfers cuts latency."""
        _sys1, piped = exchange_shared_memory(100_000, pipeline=True)
        _sys2, plain = exchange_shared_memory(100_000, pipeline=False)
        t_piped = piped["t"] - piped["t0"]
        t_plain = plain["t"] - plain["t0"]
        assert t_piped < t_plain

    def test_data_integrity(self):
        system = single_hub_system(4, with_nodes=True)
        a, b = system.cab("cab0"), system.cab("cab1")
        shm_a, shm_b = SharedMemoryInterface(a), SharedMemoryInterface(b)
        inbox = b.create_mailbox("inbox")
        body = bytes(range(256)) * 8
        result = {}

        def receiver():
            message = yield from shm_b.receive(inbox)
            result["data"] = message.data
        system.node("node1").run(receiver(), "rx")
        system.node("node0").run(shm_a.send("cab1", "inbox", data=body),
                                 "tx")
        system.run(until=60_000_000_000)
        assert result["data"] == body

    def test_requires_node(self):
        system = single_hub_system(2)      # no nodes
        with pytest.raises(NodeError):
            SharedMemoryInterface(system.cab("cab0"))


class TestSocket:
    def make(self):
        system = single_hub_system(4, with_nodes=True)
        a, b = system.cab("cab0"), system.cab("cab1")
        return system, SocketInterface(a), SocketInterface(b), \
            b.create_mailbox("sock")

    def test_roundtrip(self):
        system, sk_a, sk_b, inbox = self.make()
        result = {}

        def receiver():
            message = yield from sk_b.receive(inbox)
            result["message"] = message
            result["t"] = system.now

        def sender():
            result["t0"] = system.now
            yield from sk_a.send("cab1", "sock", data=b"socketful")
        system.node("node1").run(receiver(), "rx")
        system.node("node0").run(sender(), "tx")
        system.run(until=60_000_000_000)
        assert result["message"].data == b"socketful"

    def test_costs_syscalls_and_copies(self):
        """§6.2.3: the socket interface pays syscalls and node copies."""
        system, sk_a, sk_b, inbox = self.make()

        def receiver():
            yield from sk_b.receive(inbox)

        def sender():
            yield from sk_a.send("cab1", "sock", size=4096)
        system.node("node1").run(receiver(), "rx")
        system.node("node0").run(sender(), "tx")
        system.run(until=60_000_000_000)
        assert system.node("node0").syscalls >= 1
        assert system.node("node0").copies_bytes >= 4096
        assert system.node("node1").interrupts >= 1

    def test_interrupt_delivered_via_vme(self):
        system, sk_a, sk_b, inbox = self.make()

        def receiver():
            yield from sk_b.receive(inbox)

        def sender():
            yield from sk_a.send("cab1", "sock", size=10)
        system.node("node1").run(receiver(), "rx")
        system.node("node0").run(sender(), "tx")
        system.run(until=60_000_000_000)
        assert system.cab("cab1").board.vme.interrupts_to_node >= 1


class TestNetworkDriver:
    def make(self):
        system = single_hub_system(4, with_nodes=True)
        a, b = system.cab("cab0"), system.cab("cab1")
        nd_a, nd_b = NetworkDriverInterface(a), NetworkDriverInterface(b)
        nd_b.open_port("p")
        return system, nd_a, nd_b

    def test_roundtrip(self):
        system, nd_a, nd_b = self.make()
        result = {}

        def receiver():
            message = yield from nd_b.receive("p")
            result["message"] = message

        def sender():
            yield from nd_a.send("cab1", "p", data=b"dumb network bytes")
        system.node("node1").run(receiver(), "rx")
        system.node("node0").run(sender(), "tx")
        system.run(until=60_000_000_000)
        assert result["message"]["data"] == b"dumb network bytes"

    def test_node_pays_protocol_processing(self):
        """§6.2.3 interface 3: all transport processing on the node."""
        system, nd_a, nd_b = self.make()

        def receiver():
            yield from nd_b.receive("p")

        def sender():
            yield from nd_a.send("cab1", "p", size=3000)
        system.node("node1").run(receiver(), "rx")
        system.node("node0").run(sender(), "tx")
        busy_before = 0
        system.run(until=60_000_000_000)
        # 4 fragments → ≥4 kernel-protocol charges on each side.
        assert system.node("node0").busy_ns >= 4 * KERNEL_PROTOCOL_NS
        assert system.node("node1").busy_ns >= 4 * KERNEL_PROTOCOL_NS
        assert system.node("node1").interrupts >= 4

    def test_double_open_rejected(self):
        system, nd_a, nd_b = self.make()
        with pytest.raises(NodeError):
            nd_b.open_port("p")

    def test_unknown_port_drops(self):
        system, nd_a, nd_b = self.make()

        def sender():
            yield from nd_a.send("cab1", "ghost", size=10)
        system.node("node0").run(sender(), "tx")
        system.run(until=60_000_000_000)
        # Refused at the upcall: no consumer for that port.
        assert system.cab("cab1").transport.counters["refused_packets"] >= 1


class TestInterfaceOrdering:
    def test_efficiency_order_matches_paper(self):
        """§6.2.3: shared memory < socket < network driver latency."""
        def measure(kind):
            system = single_hub_system(4, with_nodes=True)
            a, b = system.cab("cab0"), system.cab("cab1")
            result = {}
            if kind == "shm":
                ia, ib = SharedMemoryInterface(a), SharedMemoryInterface(b)
                inbox = b.create_mailbox("m")

                def receiver():
                    yield from ib.receive(inbox)
                    result["t"] = system.now

                def sender():
                    result["t0"] = system.now
                    yield from ia.send("cab1", "m", size=256)
            elif kind == "sock":
                ia, ib = SocketInterface(a), SocketInterface(b)
                inbox = b.create_mailbox("m")

                def receiver():
                    yield from ib.receive(inbox)
                    result["t"] = system.now

                def sender():
                    result["t0"] = system.now
                    yield from ia.send("cab1", "m", size=256)
            else:
                ia, ib = NetworkDriverInterface(a), \
                    NetworkDriverInterface(b)
                ib.open_port("m")

                def receiver():
                    yield from ib.receive("m")
                    result["t"] = system.now

                def sender():
                    result["t0"] = system.now
                    yield from ia.send("cab1", "m", size=256)
            system.node("node1").run(receiver(), "rx")
            system.node("node0").run(sender(), "tx")
            system.run(until=60_000_000_000)
            return result["t"] - result["t0"]

        shm = measure("shm")
        sock = measure("sock")
        driver = measure("driver")
        assert shm < sock < driver
