"""Edge-case tests for HUB ports and the datalink under odd conditions."""

import pytest

from repro.config import NectarConfig
from repro.hardware import (CabBoard, CommandOp, Hub, HubCommand, Packet,
                            Payload, wire_cab_to_hub)
from repro.sim import Simulator
from repro.topology import single_hub_system


@pytest.fixture
def rig(sim):
    cfg = NectarConfig()
    hub = Hub(sim, "hub0", cfg.hub, cfg.fiber)
    cabs = []
    for index in range(2):
        cab = CabBoard(sim, f"cab{index}", cfg.cab, cfg.fiber)
        wire_cab_to_hub(sim, cab, hub, index)
        cab.on_receive(_sink(cab))
        cabs.append(cab)
    return cfg, hub, cabs


def _sink(cab):
    def handler(packet, size, head, tail):
        cab.received = getattr(cab, "received", [])
        cab.received.append(packet)
        cab.signal_input_drained()
        yield cab.sim.timeout(0)
    return handler


class TestPortEdgeCases:
    def test_stray_data_without_connection_dropped(self, sim, rig):
        cfg, hub, cabs = rig
        # A pure data packet with no leading command and no open route.
        cabs[0].transmit(Packet("cab0", payload=Payload(64,
                                                        data=bytes(64))))
        sim.run(until=1_000_000)
        assert hub.counters["stray_packets"] == 1
        assert not getattr(cabs[1], "received", [])

    def test_disabled_port_drops_arrivals(self, sim, rig):
        cfg, hub, cabs = rig
        hub.ports[0].enabled = False
        cabs[0].transmit(Packet("cab0",
                                commands=[HubCommand(CommandOp.OPEN,
                                                     "hub0", 1,
                                                     origin="cab0")],
                                payload=Payload(16, data=bytes(16))))
        sim.run(until=1_000_000)
        assert hub.counters["drops_disabled_port"] == 1
        assert hub.crossbar.connection_count == 0

    def test_commands_for_unknown_hub_dropped_at_cab(self, sim, rig):
        """Stray multicast commands reaching a CAB are consumed quietly."""
        cfg, hub, cabs = rig
        packet = Packet("cab0",
                        commands=[
                            HubCommand(CommandOp.OPEN, "hub0", 1,
                                       origin="cab0"),
                            HubCommand(CommandOp.OPEN, "elsewhere", 3,
                                       origin="cab0")],
                        payload=Payload(16, data=bytes(16)))
        cabs[0].transmit(packet)
        sim.run(until=1_000_000)
        # The data still arrives; the stray command rode along harmlessly.
        assert len(cabs[1].received) == 1
        assert cabs[1].received[0].commands[0].hub_id == "elsewhere"

    def test_queue_depth_statistic(self, sim, rig):
        cfg, hub, cabs = rig
        for index in range(3):
            cabs[0].transmit(Packet(
                "cab0",
                commands=[HubCommand(CommandOp.OPEN_RETRY, "hub0", 1,
                                     origin="cab0")],
                payload=Payload(900, data=bytes(900)),
                close_after=True))
        sim.run(until=10_000_000)
        assert len(cabs[1].received) == 3
        assert hub.max_queue_depths[0] >= 1

    def test_close_all_with_no_connections_is_harmless(self, sim, rig):
        cfg, hub, cabs = rig
        cabs[0].transmit(Packet("cab0",
                                commands=[HubCommand(CommandOp.CLOSE_ALL,
                                                     "*",
                                                     origin="cab0")]))
        sim.run(until=1_000_000)
        assert hub.counters["close_all_terminated"] == 1

    def test_status_snapshot_shape(self, sim, rig):
        cfg, hub, cabs = rig
        snapshot = hub.status_snapshot()
        assert snapshot["name"] == "hub0"
        assert len(snapshot["ports"]) == 16
        assert snapshot["locks"] == {}


class TestDatalinkEdgeCases:
    def test_send_to_unknown_cab_raises(self, hub_pair):
        from repro.errors import RouteError
        system, a, b = hub_pair
        from repro.hardware.frames import Payload as P
        with pytest.raises(RouteError):
            next(a.datalink.send("ghost", P(8, data=bytes(8))))

    def test_zero_byte_payload_travels(self, hub_pair):
        system, a, b = hub_pair
        inbox = b.create_mailbox("inbox")
        got = []

        def rx():
            message = yield from b.kernel.wait(inbox.get())
            got.append(message)
        b.spawn(rx())
        a.spawn(a.transport.datagram.send("cab1", "inbox", data=b""))
        system.run(until=10_000_000)
        assert got[0].size == 0

    def test_exact_max_payload_packet(self, hub_pair):
        system, a, b = hub_pair
        size = system.cfg.transport.max_payload_bytes
        inbox = b.create_mailbox("inbox")
        got = []

        def rx():
            message = yield from b.kernel.wait(inbox.get())
            got.append(message)
        b.spawn(rx())
        a.spawn(a.transport.datagram.send("cab1", "inbox", size=size,
                                          mode="packet"))
        system.run(until=10_000_000)
        assert got[0].size == size

    def test_back_to_back_circuits_reuse_route(self, hub_pair):
        system, a, b = hub_pair
        inbox = b.create_mailbox("inbox")
        got = []

        def rx():
            for _ in range(3):
                message = yield from b.kernel.wait(inbox.get())
                got.append(message.size)
        b.spawn(rx())

        def tx():
            for index in range(3):
                yield from a.transport.datagram.send(
                    "cab1", "inbox", size=2_000 + index, mode="circuit")
        a.spawn(tx())
        system.run(until=60_000_000)
        assert got == [2_000, 2_001, 2_002]
        assert a.datalink.counters["circuits_opened"] == 3
        assert system.hub("hub0").crossbar.connection_count == 0
