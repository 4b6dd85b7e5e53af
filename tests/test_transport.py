"""Integration tests for the three transport protocols (§6.2.2)."""

from dataclasses import replace

import pytest

from repro.config import NectarConfig
from repro.errors import TransportError
from repro.topology import linear_system, single_hub_system


def lossy_config(drop=0.0, corrupt=0.0, seed=7):
    cfg = NectarConfig(seed=seed)
    return replace(cfg, fiber=replace(cfg.fiber,
                                      drop_probability=drop,
                                      corrupt_probability=corrupt))


def receiver_thread(stack, mailbox, results, count=1):
    def body():
        for _ in range(count):
            message = yield from stack.kernel.wait(mailbox.get())
            results.append((stack.sim.now, message))
    stack.spawn(body(), name="rx")


class TestDatagram:
    def test_small_message_with_data(self, hub_pair):
        system, a, b = hub_pair
        inbox = b.create_mailbox("inbox")
        results = []
        receiver_thread(b, inbox, results)
        a.spawn(a.transport.datagram.send("cab1", "inbox",
                                          data=b"hello nectar"))
        system.run(until=10_000_000)
        [(_t, message)] = results
        assert message.data == b"hello nectar"
        assert message.src == "cab0"

    def test_fragmentation_and_reassembly(self, hub_pair):
        system, a, b = hub_pair
        inbox = b.create_mailbox("inbox")
        results = []
        receiver_thread(b, inbox, results)
        body = bytes(range(256)) * 16          # 4096 B, 5 fragments
        a.spawn(a.transport.datagram.send("cab1", "inbox", data=body,
                                          mode="packet"))
        system.run(until=50_000_000)
        [(_t, message)] = results
        assert message.data == body
        assert message.size == 4096

    def test_synthetic_size_only_message(self, hub_pair):
        system, a, b = hub_pair
        inbox = b.create_mailbox("inbox")
        results = []
        receiver_thread(b, inbox, results)
        a.spawn(a.transport.datagram.send("cab1", "inbox", size=100_000))
        system.run(until=100_000_000)
        [(_t, message)] = results
        assert message.size == 100_000
        assert message.data is None

    def test_loss_is_not_recovered(self):
        """Datagrams do not guarantee delivery (§6.2.2)."""
        system = single_hub_system(2, cfg=lossy_config(drop=0.5))
        a, b = system.cab("cab0"), system.cab("cab1")
        inbox = b.create_mailbox("inbox")
        results = []
        receiver_thread(b, inbox, results, count=64)

        def sender():
            for index in range(40):
                yield from a.transport.datagram.send(
                    "cab1", "inbox", data=bytes([index]) * 16)
        a.spawn(sender())
        system.run(until=1_000_000_000)
        assert 0 < len(results) < 40      # some lost, none retransmitted

    def test_full_mailbox_drops(self, hub_pair):
        system, a, b = hub_pair
        b.create_mailbox("tiny", capacity=1)

        def sender():
            for index in range(3):
                yield from a.transport.datagram.send(
                    "cab1", "tiny", data=bytes(8))
        a.spawn(sender())
        system.run(until=50_000_000)
        assert b.transport.counters["drops_mailbox_full"] == 2

    def test_meta_travels(self, hub_pair):
        system, a, b = hub_pair
        inbox = b.create_mailbox("inbox")
        results = []
        receiver_thread(b, inbox, results)
        a.spawn(a.transport.datagram.send("cab1", "inbox", data=b"x",
                                          meta={"tag": 42}))
        system.run(until=10_000_000)
        assert results[0][1].meta["tag"] == 42


def drive_real_bytes(corrupt=False):
    """One 48 KiB circuit-mode and one 8 KiB packet-mode datagram of
    real bytes cab0 -> cab1."""
    system = single_hub_system(2)
    a, b = system.cab("cab0"), system.cab("cab1")
    if corrupt:
        fiber = a.board.out_fiber
        fiber.cfg = replace(fiber.cfg, corrupt_probability=1.0)
    inbox = b.create_mailbox("inbox")
    results = []
    receiver_thread(b, inbox, results, count=2)
    bodies = [bytes(range(256)) * 192, bytes(range(255, -1, -1)) * 32]

    def sender():
        for body, mode in zip(bodies, ("circuit", "packet")):
            yield from a.transport.datagram.send("cab1", "inbox", data=body,
                                                 mode=mode)
    a.spawn(sender())
    system.run(until=100_000_000)
    return bodies, [message.data for _t, message in results], \
        b.transport.counters["checksum_drops"]


class TestLazyChecksum:
    """The CAB checksum unit's verdict is the payload's ``corrupt``
    flag: no checksum value is computed, intact bytes arrive intact,
    and damage is still caught."""

    def test_clean_drive_computes_no_checksum(self):
        bodies, delivered, drops = drive_real_bytes()
        assert delivered == bodies
        assert drops == 0

    def test_corrupting_fiber_drops_everything(self):
        _bodies, delivered, drops = drive_real_bytes(corrupt=True)
        assert delivered == []
        assert drops > 0


class TestByteStream:
    def test_reliable_delivery_clean_network(self, hub_pair):
        system, a, b = hub_pair
        inbox = b.create_mailbox("stream-in")
        results = []
        receiver_thread(b, inbox, results, count=3)
        connection = a.transport.stream.connect("cab1", "stream-in")

        def sender():
            for index in range(3):
                yield from connection.send(data=bytes([index]) * 100)
        a.spawn(sender())
        system.run(until=100_000_000)
        assert [m.data[0] for _t, m in results] == [0, 1, 2]

    def test_windows_limit_inflight(self, hub_pair):
        system, a, b = hub_pair
        inbox = b.create_mailbox("stream-in")
        results = []
        receiver_thread(b, inbox, results)
        connection = a.transport.stream.connect("cab1", "stream-in")
        window = system.cfg.transport.window_packets

        def sender():
            yield from connection.send(size=40_000)   # 42 packets
        a.spawn(sender())

        max_seen = 0

        def monitor():
            nonlocal max_seen
            while connection.snd_next < 42:
                max_seen = max(max_seen, connection.inflight)
                yield system.sim.timeout(10_000)
        system.sim.process(monitor())
        system.run(until=1_000_000_000)
        assert len(results) == 1
        assert results[0][1].size == 40_000
        assert max_seen <= window

    def test_recovers_from_packet_loss(self):
        system = single_hub_system(2, cfg=lossy_config(drop=0.15))
        a, b = system.cab("cab0"), system.cab("cab1")
        inbox = b.create_mailbox("stream-in")
        results = []
        receiver_thread(b, inbox, results, count=5)
        connection = a.transport.stream.connect("cab1", "stream-in")
        body = bytes(range(250)) * 8   # 2000 B each

        def sender():
            for _ in range(5):
                yield from connection.send(data=body)
        a.spawn(sender())
        system.run(until=10_000_000_000)
        assert len(results) == 5
        assert all(m.data == body for _t, m in results)
        assert connection.retransmissions > 0

    def test_recovers_from_corruption(self):
        """Checksums catch corrupt payloads; retransmission repairs."""
        system = single_hub_system(2, cfg=lossy_config(corrupt=0.2))
        a, b = system.cab("cab0"), system.cab("cab1")
        inbox = b.create_mailbox("stream-in")
        results = []
        receiver_thread(b, inbox, results, count=3)
        connection = a.transport.stream.connect("cab1", "stream-in")

        def sender():
            for index in range(3):
                yield from connection.send(data=bytes([index]) * 500)
        a.spawn(sender())
        system.run(until=10_000_000_000)
        assert len(results) == 3
        assert b.transport.counters["checksum_drops"] > 0

    def test_total_loss_raises_transport_error(self):
        system = single_hub_system(2, cfg=lossy_config(drop=1.0))
        a, b = system.cab("cab0"), system.cab("cab1")
        b.create_mailbox("stream-in")
        connection = a.transport.stream.connect("cab1", "stream-in")
        outcome = {}

        def sender():
            try:
                yield from connection.send(data=b"doomed")
            except TransportError:
                outcome["failed"] = True
        a.spawn(sender())
        system.run(until=60_000_000_000)
        assert outcome.get("failed")

    def test_multi_hop_stream(self):
        system = linear_system(3, cabs_per_hub=1)
        a, b = system.cab("cab0_0"), system.cab("cab2_0")
        inbox = b.create_mailbox("s")
        results = []
        receiver_thread(b, inbox, results)
        connection = a.transport.stream.connect("cab2_0", "s")
        a.spawn(connection.send(data=bytes(3000)))
        system.run(until=1_000_000_000)
        assert results[0][1].size == 3000


class TestRequestResponse:
    def start_echo_server(self, stack, mailbox_name="svc"):
        inbox = stack.create_mailbox(mailbox_name)

        def server():
            while True:
                request = yield from stack.kernel.wait(inbox.get())
                yield from stack.transport.rpc.respond(
                    request, data=request.data[::-1])
        stack.spawn(server(), name="server")
        return inbox

    def test_roundtrip(self, hub_pair):
        system, a, b = hub_pair
        self.start_echo_server(b)
        outcome = {}

        def client():
            response = yield from a.transport.rpc.request(
                "cab1", "svc", data=b"abcdef")
            outcome["data"] = response.data
        a.spawn(client())
        system.run(until=100_000_000)
        assert outcome["data"] == b"fedcba"

    def test_retransmits_on_loss_and_succeeds(self):
        system = single_hub_system(2, cfg=lossy_config(drop=0.3, seed=11))
        a, b = system.cab("cab0"), system.cab("cab1")
        self.start_echo_server(b)
        outcome = {}

        def client():
            response = yield from a.transport.rpc.request(
                "cab1", "svc", data=b"retry me", timeout_ns=3_000_000)
            outcome["data"] = response.data
        a.spawn(client())
        system.run(until=60_000_000_000)
        assert outcome["data"] == b"em yrter"

    def test_at_most_once_execution(self):
        """Duplicate requests are answered from the cache, not re-run."""
        system = single_hub_system(2)
        a, b = system.cab("cab0"), system.cab("cab1")
        inbox = b.create_mailbox("svc")
        executions = []

        def server():
            while True:
                request = yield from b.kernel.wait(inbox.get())
                executions.append(request.meta["req_id"])
                yield from b.transport.rpc.respond(request, data=b"done")
        b.spawn(server())
        outcome = {}

        def client():
            # Absurdly short timeout forces client retransmissions even
            # though the network is healthy.
            response = yield from a.transport.rpc.request(
                "cab1", "svc", data=b"x", timeout_ns=30_000,
                max_retries=20)
            outcome["data"] = response.data
        a.spawn(client())
        system.run(until=60_000_000_000)
        assert outcome["data"] == b"done"
        assert len(set(executions)) == len(executions) == 1
        assert b.transport.rpc.duplicate_requests > 0

    def test_gives_up_after_retries(self):
        system = single_hub_system(2, cfg=lossy_config(drop=1.0))
        a, b = system.cab("cab0"), system.cab("cab1")
        b.create_mailbox("svc")
        outcome = {}

        def client():
            try:
                yield from a.transport.rpc.request(
                    "cab1", "svc", data=b"x", timeout_ns=1_000_000,
                    max_retries=2)
            except TransportError:
                outcome["failed"] = True
        a.spawn(client())
        system.run(until=60_000_000_000)
        assert outcome.get("failed")

    def test_large_request_and_response(self, hub_pair):
        system, a, b = hub_pair
        inbox = b.create_mailbox("svc")

        def server():
            request = yield from b.kernel.wait(inbox.get())
            yield from b.transport.rpc.respond(request, size=30_000)
        b.spawn(server())
        outcome = {}

        def client():
            response = yield from a.transport.rpc.request(
                "cab1", "svc", size=20_000, timeout_ns=500_000_000)
            outcome["size"] = response.size
        a.spawn(client())
        system.run(until=2_000_000_000)
        assert outcome["size"] == 30_000
