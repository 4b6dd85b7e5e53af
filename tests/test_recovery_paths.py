"""Regression tests for the error-recovery paths the fault campaigns flush out.

Each test here pins one of the recovery-path bugs fixed alongside the
`repro.faults` subsystem: reassembly garbage collection, retry
accounting, response-cache eviction, send-argument validation, circuit
retry exhaustion, and HUB-port disable/re-enable flow control.
"""

from dataclasses import replace

import pytest

from conftest import fixed_timer
from repro.config import MAX_ROUTE_ATTEMPTS, NectarConfig
from repro.errors import DatalinkError, TransportError
from repro.hardware import CommandOp, HubCommand
from repro.hardware.frames import Payload
from repro.sim import units
from repro.topology import single_hub_system
from repro.transport.base import message_size
from repro.transport.reassembly import ReassemblyBuffer
from repro.transport.reqresp import _IN_PROGRESS, RESPONSE_CACHE_LIMIT


def lossy_config(drop=0.0, corrupt=0.0, seed=7):
    cfg = NectarConfig(seed=seed)
    return replace(cfg, fiber=replace(cfg.fiber,
                                      drop_probability=drop,
                                      corrupt_probability=corrupt))


def fragment(index, nfrags, total_size=64, size=32):
    return Payload(size, header={"frag": index, "nfrags": nfrags,
                                 "total_size": total_size})


class TestReassemblyCollection:
    def test_completing_a_stale_partial_no_keyerror(self):
        """Regression: the final fragment of an aged partial completes it.

        The old code garbage-collected *after* inserting the fragment,
        without exempting the key being updated: a partial older than
        the timeout was deleted between ``add`` and the completion
        check, and the ``del`` on completion raised ``KeyError``.
        """
        buffer = ReassemblyBuffer(timeout_ns=1_000)
        assert buffer.add_fragment("key", fragment(0, 2), now=0) is None
        # Arrives after the timeout: must complete, not KeyError.
        partial = buffer.add_fragment("key", fragment(1, 2), now=5_000)
        assert partial is not None
        assert partial.complete
        assert buffer.expired == 0
        assert len(buffer) == 0

    def test_other_stale_partials_still_collected(self):
        buffer = ReassemblyBuffer(timeout_ns=1_000)
        buffer.add_fragment("old", fragment(0, 2), now=0)
        buffer.add_fragment("fresh", fragment(0, 2), now=5_000)
        assert buffer.expired == 1
        assert len(buffer) == 1

    def test_expiry_counter_surfaces_as_metric(self):
        system = single_hub_system(2)
        observatory = system.observe(interval_ns=units.us(50))
        reassembly = system.cab("cab0").transport.datagram.reassembly
        reassembly.add_fragment(("dg", "x", 1), fragment(0, 2), now=0)
        reassembly.add_fragment(("dg", "x", 2), fragment(0, 2),
                                now=reassembly.timeout_ns + 1)
        metrics = observatory.snapshot()["metrics"]
        assert metrics["cab0.tp.reassembly_expired"]["value"] == 1.0


class TestResponseCache:
    def test_eviction_never_drops_in_progress(self):
        """Regression: cache pressure must not break at-most-once.

        The old eviction dropped the oldest entry regardless; evicting
        an ``_IN_PROGRESS`` marker lets a duplicate of a long-running
        request re-execute the server.
        """
        rpc = single_hub_system(2).cab("cab0").transport.rpc
        rpc._served[("busy-client", 1)] = _IN_PROGRESS
        for i in range(RESPONSE_CACHE_LIMIT + 20):
            rpc._cache_response("client", i, (b"r", 1))
        assert rpc._served[("busy-client", 1)] is _IN_PROGRESS
        assert len(rpc._served) == RESPONSE_CACHE_LIMIT


class TestRetryAccounting:
    def test_failed_request_counts_only_real_retransmits(self):
        """Regression: the final failing attempt is not a retransmit.

        The old loop bumped the retransmit counters before checking the
        retry budget, so a request that gave up after N retries reported
        N+1 — inflating every fault-campaign recovery report.
        """
        system = single_hub_system(2, cfg=fixed_timer(
            NectarConfig(), units.us(50), retries=3))
        client = system.cab("cab0")
        # The service CAB never answers: its uplink is dead.
        client.board.out_fiber.set_fault(down=True)
        outcome = {}

        def caller():
            try:
                yield from client.transport.rpc.request(
                    "cab1", "svc", size=64)
            except TransportError as exc:
                outcome["error"] = str(exc)
        client.spawn(caller())
        system.run(until=units.ms(10))
        assert "no response after 4 attempts" in outcome["error"]
        assert client.transport.rpc.requests_sent == 4
        assert client.transport.rpc.retransmits == 3

    def test_successful_request_counts_no_retransmits(self):
        system = single_hub_system(2)
        client, server = system.cab("cab0"), system.cab("cab1")
        svc = server.create_mailbox("svc")

        def serve():
            request = yield from server.kernel.wait(svc.get())
            yield from server.transport.rpc.respond(request, data=b"pong")

        def call():
            yield from client.transport.rpc.request("cab1", "svc",
                                                    data=b"ping")
        server.spawn(serve())
        client.spawn(call())
        system.run(until=units.ms(50))
        assert client.transport.rpc.retransmits == 0


class TestSendValidation:
    def test_message_size_without_data_or_size(self):
        with pytest.raises(TransportError, match="data or an explicit"):
            message_size(None, None)

    def test_message_size_accepts_either(self):
        assert message_size(b"abcd", None) == 4
        assert message_size(None, 99) == 99
        assert message_size(b"abcd", 4) == 4

    @pytest.mark.parametrize("size", [2, 9])
    def test_message_size_rejects_disagreeing_size(self, size):
        with pytest.raises(TransportError, match=r"!= len\(data\) 4"):
            message_size(b"abcd", size)

    @pytest.mark.parametrize("length,size", [(3000, 2000), (1500, 3000)])
    def test_datagram_send_rejects_size_mismatch_up_front(self, length,
                                                          size):
        """A short size used to truncate silently; a long one crashed
        the CAB thread after fragment 0 was already on the wire."""
        system = single_hub_system(2)
        cab = system.cab("cab0")
        sender = cab.transport.datagram.send(
            "cab1", "inbox", data=b"x" * length, size=size, mode="packet")
        with pytest.raises(TransportError, match="message size"):
            next(sender)
        assert cab.transport.counters["fragments_sent"] == 0

    def test_datagram_send_rejects_empty_call(self):
        system = single_hub_system(2)
        sender = system.cab("cab0").transport.datagram.send("cab1", "inbox")
        with pytest.raises(TransportError, match="data or an explicit"):
            next(sender)

    def test_stream_send_rejects_empty_call(self):
        system = single_hub_system(2)
        connection = system.cab("cab0").transport.stream.connect(
            "cab1", "inbox")
        with pytest.raises(TransportError, match="data or an explicit"):
            next(connection.send())

    def test_rpc_request_rejects_empty_call(self):
        system = single_hub_system(2)
        with pytest.raises(TransportError, match="data or an explicit"):
            next(system.cab("cab0").transport.rpc.request("cab1", "svc"))


class TestReliableUnderLoss:
    def test_stream_go_back_n_recovers_from_drops(self):
        system = single_hub_system(2, cfg=lossy_config(drop=0.02))
        a, b = system.cab("cab0"), system.cab("cab1")
        inbox = b.create_mailbox("inbox")
        received = []

        def receiver():
            while len(received) < 30:
                message = yield from b.kernel.wait(inbox.get())
                received.append(message.size)
        b.spawn(receiver())
        connection = a.transport.stream.connect("cab1", "inbox")

        def sender():
            for _ in range(30):
                yield from connection.send(size=1024)
        a.spawn(sender())
        system.run(until=units.ms(500))
        assert received == [1024] * 30
        assert a.transport.stream.retransmitted > 0

    def test_stream_survives_corruption(self):
        system = single_hub_system(2, cfg=lossy_config(corrupt=0.02))
        a, b = system.cab("cab0"), system.cab("cab1")
        inbox = b.create_mailbox("inbox")
        received = []

        def receiver():
            while len(received) < 30:
                message = yield from b.kernel.wait(inbox.get())
                received.append(message.size)
        b.spawn(receiver())
        connection = a.transport.stream.connect("cab1", "inbox")

        def sender():
            for _ in range(30):
                yield from connection.send(size=1024)
        a.spawn(sender())
        system.run(until=units.ms(500))
        assert received == [1024] * 30
        drops = sum(stack.transport.counters.get("checksum_drops", 0)
                    for stack in system.cabs.values())
        assert drops > 0

    def test_rpc_at_most_once_under_drops(self):
        """Retransmitted requests never re-execute the server."""
        system = single_hub_system(2, cfg=fixed_timer(
            lossy_config(drop=0.05, seed=11), units.us(500), retries=50))
        client, server = system.cab("cab0"), system.cab("cab1")
        svc = server.create_mailbox("svc")
        executions = []

        def serve():
            while True:
                request = yield from server.kernel.wait(svc.get())
                executions.append(request.meta["req_id"])
                yield from server.transport.rpc.respond(request, size=64)

        responses = []

        def call():
            for _ in range(10):
                response = yield from client.transport.rpc.request(
                    "cab1", "svc", size=256)
                responses.append(response)
        server.spawn(serve())
        client.spawn(call())
        system.run(until=units.ms(500))
        assert len(responses) == 10
        assert client.transport.rpc.retransmits > 0, \
            "no loss induced; tighten the drop probability or seed"
        # At-most-once: each request id executed exactly once.
        assert sorted(executions) == sorted(set(executions))
        assert len(set(executions)) == 10


class TestCircuitRetries:
    def test_circuit_open_exhausts_retry_budget(self):
        system = single_hub_system(2)
        a = system.cab("cab0")
        a.board.out_fiber.set_fault(down=True)
        outcome = {}

        def opener():
            try:
                yield from a.transport.datagram.send(
                    "cab1", "inbox", size=8192, mode="circuit")
            except DatalinkError as exc:
                outcome["error"] = str(exc)
        a.spawn(opener())
        system.run(until=units.ms(100))
        assert "failed after" in outcome["error"]
        assert a.datalink.counters["circuit_retries"] == MAX_ROUTE_ATTEMPTS
        assert a.datalink.counters["reply_timeouts"] == MAX_ROUTE_ATTEMPTS

    def test_circuit_retry_recovers_after_outage(self):
        """A mid-outage opener succeeds once the link heals."""
        system = single_hub_system(2)
        a, b = system.cab("cab0"), system.cab("cab1")
        inbox = b.create_mailbox("inbox")
        received = []

        def receiver():
            message = yield from b.kernel.wait(inbox.get())
            received.append(message.size)
        b.spawn(receiver())
        a.board.out_fiber.set_fault(down=True)

        def heal():
            yield system.sim.timeout(units.us(300))
            a.board.out_fiber.set_fault(down=False)
        system.sim.process(heal(), name="heal")

        def opener():
            yield from a.transport.datagram.send(
                "cab1", "inbox", size=8192, mode="circuit")
        a.spawn(opener())
        system.run(until=units.ms(100))
        assert received == [8192]
        assert a.datalink.counters["circuit_retries"] >= 1


class TestHubPortFlap:
    def _supervisor(self, system, op, port_index=0):
        hub = system.hubs["hub0"]
        command = HubCommand(op, hub.name, port_index, origin="test")

        def issue():
            yield from hub.execute_command(command, in_port=port_index,
                                           reverse_path=[])
        system.sim.process(issue(), name="supervisor")

    def test_disabled_port_drops_without_wedging_sender(self):
        """Regression: drops at a disabled port must release the
        upstream ready bit, or the sending CAB wedges forever."""
        system = single_hub_system(2)
        a, b = system.cab("cab0"), system.cab("cab1")
        inbox = b.create_mailbox("inbox")
        received = []

        def receiver():
            while True:
                message = yield from b.kernel.wait(inbox.get())
                received.append(message.size)
        b.spawn(receiver())
        self._supervisor(system, CommandOp.SV_DISABLE_PORT)
        done = {}

        def sender():
            yield from a.transport.datagram.send("cab1", "inbox", size=64)
            done["first"] = system.now
            yield from a.transport.datagram.send("cab1", "inbox", size=64)
            done["second"] = system.now
        a.spawn(sender())
        system.run(until=units.ms(5))
        hub = system.hubs["hub0"]
        assert hub.counters["drops_disabled_port"] >= 2
        assert received == []
        # Both sends completed: the drop path signalled "drained".
        assert "second" in done

    def test_reenabled_port_carries_traffic_again(self):
        system = single_hub_system(2)
        a, b = system.cab("cab0"), system.cab("cab1")
        inbox = b.create_mailbox("inbox")
        received = []

        def receiver():
            while True:
                message = yield from b.kernel.wait(inbox.get())
                received.append(message.size)
        b.spawn(receiver())
        self._supervisor(system, CommandOp.SV_DISABLE_PORT)

        def reenable():
            yield system.sim.timeout(units.us(200))
            self._supervisor(system, CommandOp.SV_ENABLE_PORT)
        system.sim.process(reenable(), name="reenable")

        def sender():
            yield from a.transport.datagram.send("cab1", "inbox", size=64)
            yield system.sim.timeout(units.us(400))
            yield from a.transport.datagram.send("cab1", "inbox", size=64)
        a.spawn(sender())
        system.run(until=units.ms(5))
        assert received == [64]
        assert system.hubs["hub0"].counters["drops_disabled_port"] >= 1
