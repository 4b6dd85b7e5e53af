"""Integration tests for the datalink layer: switching modes, multicast,
flow control, error recovery under fault injection."""

from dataclasses import replace

import pytest

from repro.config import MAX_ROUTE_ATTEMPTS, NectarConfig
from repro.errors import CollectiveError, DatalinkError
from repro.hardware.frames import Payload
from repro.hardware.hub_commands import CommandOp
from repro.topology import figure7_system, linear_system, single_hub_system


def dg_payload(size, dst_mailbox="inbox", src="cab0", msg_id=1):
    header = {"proto": "dg", "dst_mailbox": dst_mailbox, "kind": "data",
              "msg_id": msg_id, "frag": 0, "nfrags": 1, "total_size": size,
              "src": src}
    data = bytes(size)
    return Payload(size, data=data, header=header)


def collect_inbox(stack, name="inbox", count=1):
    inbox = stack.create_mailbox(name)
    got = []

    def reader():
        for _ in range(count):
            message = yield from stack.kernel.wait(inbox.get())
            got.append((stack.sim.now, message))
    stack.spawn(reader(), name="collector")
    return got


class TestSendModes:
    def test_packet_mode_single_hop(self, hub_pair):
        system, a, b = hub_pair
        got = collect_inbox(b)
        a.spawn(a.datalink.send("cab1", dg_payload(100)))
        system.run(until=10_000_000)
        assert len(got) == 1
        assert a.datalink.counters["packets_sent_packet_mode"] == 1

    def test_circuit_mode_explicit(self, hub_pair):
        system, a, b = hub_pair
        got = collect_inbox(b)
        a.spawn(a.datalink.send("cab1", dg_payload(100), mode="circuit"))
        system.run(until=10_000_000)
        assert len(got) == 1
        assert a.datalink.counters["circuits_opened"] == 1
        assert a.datalink.counters["packets_sent_circuit_mode"] == 1

    def test_oversized_packet_mode_rejected(self, hub_pair):
        system, a, b = hub_pair

        def body():
            yield from a.datalink.send("cab1", dg_payload(5000),
                                       mode="packet")
        thread = a.spawn(body())
        with pytest.raises(Exception):
            system.run(until=10_000_000)

    def test_auto_mode_picks_circuit_for_large(self, hub_pair):
        system, a, b = hub_pair
        got = collect_inbox(b)
        a.spawn(a.datalink.send("cab1", dg_payload(5000)))
        system.run(until=50_000_000)
        assert len(got) == 1
        assert a.datalink.counters["circuits_opened"] == 1

    def test_unknown_mode_rejected(self, hub_pair):
        system, a, b = hub_pair
        with pytest.raises(DatalinkError):
            next(a.datalink.send("cab1", dg_payload(10), mode="bogus"))

    def test_connections_closed_after_transfer(self, hub_pair):
        system, a, b = hub_pair
        got = collect_inbox(b)
        a.spawn(a.datalink.send("cab1", dg_payload(100)))
        system.run(until=10_000_000)
        assert system.hub("hub0").crossbar.connection_count == 0


class TestMultiHop:
    def test_three_hub_chain_packet_mode(self):
        system = linear_system(3, cabs_per_hub=1)
        src, dst = system.cab("cab0_0"), system.cab("cab2_0")
        got = collect_inbox(dst)
        src.spawn(src.datalink.send("cab2_0", dg_payload(200,
                                                         src="cab0_0")))
        system.run(until=20_000_000)
        assert len(got) == 1
        for hub_name in ("hub0", "hub1", "hub2"):
            assert system.hub(hub_name).crossbar.connection_count == 0

    def test_figure7_circuit(self):
        system = figure7_system()
        dst = system.cab("CAB1")
        src = system.cab("CAB3")
        got = collect_inbox(dst)
        src.spawn(src.datalink.send("CAB1", dg_payload(2000, src="CAB3"),
                                    mode="circuit"))
        system.run(until=50_000_000)
        assert len(got) == 1

    def test_multicast_circuit_reaches_all(self):
        system = figure7_system()
        got4 = collect_inbox(system.cab("CAB4"), "mc")
        got5 = collect_inbox(system.cab("CAB5"), "mc")
        src = system.cab("CAB2")
        payload = dg_payload(500, dst_mailbox="mc", src="CAB2")
        src.spawn(src.datalink.multicast(["CAB4", "CAB5"], payload,
                                         mode="circuit"))
        system.run(until=50_000_000)
        assert len(got4) == 1 and len(got5) == 1

    def test_multicast_packet_reaches_all(self):
        system = figure7_system()
        got4 = collect_inbox(system.cab("CAB4"), "mc")
        got5 = collect_inbox(system.cab("CAB5"), "mc")
        src = system.cab("CAB2")
        payload = dg_payload(300, dst_mailbox="mc", src="CAB2")
        src.spawn(src.datalink.multicast(["CAB4", "CAB5"], payload,
                                         mode="packet"))
        system.run(until=50_000_000)
        assert len(got4) == 1 and len(got5) == 1
        assert src.datalink.counters["multicasts_packet_mode"] == 1


class TestContention:
    def test_two_senders_one_receiver_serialised(self, hub_pair):
        system, a, b = hub_pair
        c = system.cab("cab2")
        got = collect_inbox(b, count=2)
        a.spawn(a.datalink.send("cab1", dg_payload(500, src="cab0")))
        c.spawn(c.datalink.send("cab1", dg_payload(500, src="cab2",
                                                   msg_id=2)))
        system.run(until=50_000_000)
        assert len(got) == 2

    def test_crossing_circuits_both_complete(self):
        system = figure7_system()
        got1 = collect_inbox(system.cab("CAB1"), "x")
        got4 = collect_inbox(system.cab("CAB4"), "x")
        cab3, cab2 = system.cab("CAB3"), system.cab("CAB2")
        p1 = dg_payload(3000, dst_mailbox="x", src="CAB3")
        p2 = dg_payload(3000, dst_mailbox="x", src="CAB2", msg_id=2)
        cab3.spawn(cab3.datalink.send("CAB1", p1, mode="circuit"))
        cab2.spawn(cab2.datalink.send("CAB4", p2, mode="circuit"))
        system.run(until=100_000_000)
        assert len(got1) == 1 and len(got4) == 1


class TestErrorRecovery:
    def test_circuit_recovers_from_lost_command_packets(self):
        """§6.2.1: the datalink recovers from lost HUB commands."""
        cfg = NectarConfig()
        cfg = replace(cfg, fiber=replace(cfg.fiber, drop_probability=0.3))
        system = single_hub_system(3, cfg=cfg)
        a, b = system.cab("cab0"), system.cab("cab1")
        got = collect_inbox(b)

        def body():
            # Retry the whole circuit until established; the datalink's
            # reply timeout + close-all recovery drives this.
            yield from a.datalink.send("cab1", dg_payload(100),
                                       mode="circuit")
        a.spawn(body())
        system.run(until=2_000_000_000)
        # The command packet or the data may be dropped; recovery applies
        # to route establishment.  At least the retries must have fired
        # without deadlock and the circuit must eventually open.
        assert a.datalink.counters["circuits_opened"] >= 1

    def test_circuit_gives_up_after_max_attempts(self):
        cfg = NectarConfig()
        cfg = replace(cfg, fiber=replace(cfg.fiber, drop_probability=1.0))
        system = single_hub_system(3, cfg=cfg)
        a = system.cab("cab0")
        failed = {}

        def body():
            try:
                yield from a.datalink.send("cab1", dg_payload(100),
                                           mode="circuit")
            except DatalinkError:
                failed["yes"] = True
        a.spawn(body())
        system.run(until=10_000_000_000)
        assert failed.get("yes")
        assert a.datalink.counters["reply_timeouts"] >= MAX_ROUTE_ATTEMPTS

    def test_close_route_cleans_partial_connections(self, hub_pair):
        system, a, b = hub_pair
        hub = system.hub("hub0")
        hub.crossbar.connect(0, 1)   # pretend a stale connection exists

        def body():
            yield from a.datalink.close_route()
        a.spawn(body())
        system.run(until=10_000_000)
        assert hub.crossbar.connection_count == 0


class TestReceivePath:
    def test_unclaimed_packet_dropped(self, hub_pair):
        system, a, b = hub_pair
        # no mailbox "inbox" on cab1 -> classify refuses -> drop
        a.spawn(a.datalink.send("cab1", dg_payload(100)))
        system.run(until=10_000_000)
        assert b.datalink.counters["drops_no_consumer"] == 1

    def test_command_only_packets_counted(self, hub_pair):
        system, a, b = hub_pair

        def body():
            route = system.router.route("cab0", "cab1")
            yield from a.datalink.open_circuit(route)
            yield from a.datalink.close_route()
        a.spawn(body())
        system.run(until=10_000_000)
        # One packet reaches cab1: the travelling close-all, forwarded
        # over the open circuit.  The open command stops at the HUB, and
        # its reply goes back to cab0.
        assert b.board.counters["packets_received"] == 1
        assert b.datalink.counters["command_only_packets"] == 1

    def test_first_hop_ready_gating(self, hub_pair):
        system, a, b = hub_pair
        got = collect_inbox(b, count=3)
        for index in range(3):
            a.spawn(a.datalink.send(
                "cab1", dg_payload(900, msg_id=10 + index)))
        system.run(until=100_000_000)
        assert len(got) == 3

    def test_status_query_first_hop(self, hub_pair):
        system, a, b = hub_pair
        answers = {}

        def body():
            reply = yield from a.datalink.query_first_hop(
                CommandOp.STATUS_OUTPUT, 1)
            answers["reply"] = reply
        a.spawn(body())
        system.run(until=10_000_000)
        assert answers["reply"].ok
        assert answers["reply"].info["owner"] is None

    def test_reply_keys_are_minted_per_board(self):
        # A CAB keys the replies it awaits from its own count, so the
        # first one carries seq 1 however many systems were built before.
        def first_reply_seq():
            system = single_hub_system(2)
            stack = system.cab("cab0")
            answers = []

            def body():
                answers.append((yield from stack.datalink.query_first_hop(
                    CommandOp.STATUS_OUTPUT, 1)))
            stack.spawn(body())
            system.run(until=10_000_000)
            [reply] = answers
            return reply.seq

        assert first_reply_seq() == first_reply_seq() == 1


#: Deadline for the replied exchanges below (the collective default is
#: 50 ms; nothing here needs more than a few microseconds to answer).
ASK_TIMEOUT_NS = 1_000_000


def ask_status(system, datalink, timeout_ns=None):
    return (yield from datalink.query_first_hop(
        CommandOp.STATUS_OUTPUT, 1, timeout_ns=timeout_ns))


def ask_local_fetch_add(system, datalink, timeout_ns=ASK_TIMEOUT_NS):
    return (yield from datalink.collective_command(
        CommandOp.SV_FETCH_ADD, 9, arg={"delta": 1},
        timeout_ns=timeout_ns))


def ask_remote_fetch_add(system, datalink):
    return (yield from datalink.collective_command(
        CommandOp.SV_FETCH_ADD, 9, arg={"delta": 1},
        timeout_ns=ASK_TIMEOUT_NS, hub_name="hub1"))


def ask_link_probe(system, datalink, timeout_ns=ASK_TIMEOUT_NS):
    port_a, port_b = system.router.parallel_links("hub0", "hub1")[0]
    return (yield from datalink.probe_link(
        system.hub("hub0"), port_a, system.hub("hub1"), port_b,
        timeout_ns=timeout_ns))


class TestReplyTimeouts:
    """Every replied exchange with a HUB gives up cleanly when its
    command is lost: the caller sees its documented failure, the
    timeout is counted, and no reply expectation is left behind."""

    @pytest.mark.parametrize("ask, error, counter", [
        (ask_status, DatalinkError, "reply_timeouts"),
        (ask_local_fetch_add, CollectiveError, "collective_reply_timeouts"),
        (ask_remote_fetch_add, CollectiveError, "collective_reply_timeouts"),
        (ask_link_probe, None, "link_probe_timeouts"),
    ], ids=["query_first_hop", "collective-local", "collective-remote",
            "probe_link"])
    def test_lost_command_times_out_cleanly(self, ask, error, counter):
        system = linear_system(2, 2)
        stack = system.cab("cab0_0")
        hub, port = system.router.cab_location("cab0_0")
        hub.ports[port].enabled = False       # our first hop drops it all
        outcome = {}

        def body():
            try:
                outcome["value"] = yield from ask(system, stack.datalink)
            except (DatalinkError, CollectiveError) as exc:
                outcome["error"] = type(exc)
        stack.spawn(body())
        system.run(until=100_000_000)
        if error is None:
            assert outcome == {"value": None}
        else:
            assert outcome == {"error": error}
        counters = stack.datalink.counters
        assert counters["reply_timeouts"] == 1
        assert counters[counter] == 1
        assert stack.datalink.cab._reply_waiters == {}
        assert hub.counters["drops_disabled_port"] >= 1


class TestExplicitDeadlines:
    """An explicit reply deadline of 0 or less is an error, not a
    silent switch to the default deadline."""

    @pytest.mark.parametrize("timeout_ns", [0, -5])
    @pytest.mark.parametrize("ask", [
        ask_status, ask_local_fetch_add, ask_link_probe,
    ], ids=["query_first_hop", "collective_command", "probe_link"])
    def test_non_positive_deadline_rejected(self, ask, timeout_ns):
        system = linear_system(2, 2)
        stack = system.cab("cab0_0")
        outcome = {}

        def body():
            try:
                outcome["value"] = yield from ask(
                    system, stack.datalink, timeout_ns)
            except DatalinkError as exc:
                outcome["error"] = str(exc)
        stack.spawn(body())
        system.run(until=100_000_000)
        assert outcome == {
            "error": f"reply timeout must be positive, got {timeout_ns}"}
        assert stack.datalink.counters.get("reply_timeouts", 0) == 0
