"""The §6.2.1 upcall deadline: "The transport layer upcalls must
determine the destination mailbox and return to the datalink layer
before incoming data overflows the CAB input queue."
"""

from dataclasses import replace

import pytest

from repro.config import INPUT_QUEUE_BYTES, NectarConfig
from repro.topology import single_hub_system


def tight_budget_config(budget_ns=1):
    cfg = NectarConfig()
    return replace(
        cfg, datalink=replace(cfg.datalink, upcall_budget_ns=budget_ns))


class TestUpcallBudget:
    def test_blown_budget_drops_the_packet(self):
        """With a 1 ns budget every inbound packet overflows the queue."""
        system = single_hub_system(2, cfg=tight_budget_config())
        a, b = system.cab("cab0"), system.cab("cab1")
        b.create_mailbox("inbox")
        a.spawn(a.transport.datagram.send("cab1", "inbox", size=64))
        system.run(until=10_000_000)
        assert b.datalink.counters["input_queue_overflows"] == 1
        assert b.transport.counters.get("messages_delivered", 0) == 0

    def test_reliable_stream_fails_when_budget_always_blown(self):
        """Overflow is a receive-side black hole; the sender's stream
        protocol eventually reports the loss."""
        from repro.errors import TransportError
        system = single_hub_system(2, cfg=tight_budget_config())
        a, b = system.cab("cab0"), system.cab("cab1")
        b.create_mailbox("inbox")
        connection = a.transport.stream.connect("cab1", "inbox")
        outcome = {}

        def sender():
            try:
                yield from connection.send(size=100)
            except TransportError:
                outcome["failed"] = True
        a.spawn(sender())
        system.run(until=120_000_000_000)
        assert outcome.get("failed")
        assert b.datalink.counters["input_queue_overflows"] > 1

    def test_default_budget_is_generous_enough(self):
        """The default budget equals the queue drain time; the normal
        receive path never comes close."""
        system = single_hub_system(2)
        a, b = system.cab("cab0"), system.cab("cab1")
        inbox = b.create_mailbox("inbox")
        got = []

        def rx():
            for _ in range(5):
                message = yield from b.kernel.wait(inbox.get())
                got.append(message)
        b.spawn(rx())

        def tx():
            for _ in range(5):
                yield from a.transport.datagram.send("cab1", "inbox",
                                                     size=512)
        a.spawn(tx())
        system.run(until=60_000_000)
        assert len(got) == 5
        assert b.datalink.counters.get("input_queue_overflows", 0) == 0

    def test_budget_matches_queue_size_at_fiber_rate(self):
        cfg = NectarConfig()
        assert cfg.datalink.upcall_budget_ns == 80 * INPUT_QUEUE_BYTES
