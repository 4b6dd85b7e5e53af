"""Recovery from hardware failures and reconfiguration (§4 goal 4).

"HUB commands can be used to implement various network management
functions such as testing, reconfiguration, and recovery from hardware
failures."
"""

import pytest

from repro.hardware.hub_commands import CommandOp
from repro.system.builder import NectarSystem
from repro.topology import single_hub_system


class TestHubResetMidTraffic:
    def test_reliable_stream_survives_hub_reset(self):
        """A supervisor reset drops every connection mid-stream; the
        byte-stream protocol retransmits across fresh connections."""
        system = single_hub_system(3)
        a, b = system.cab("cab0"), system.cab("cab1")
        hub = system.hub("hub0")
        inbox = b.create_mailbox("inbox")
        results = []

        def receiver():
            for _ in range(3):
                message = yield from b.kernel.wait(inbox.get())
                results.append(message.size)
        b.spawn(receiver())
        connection = a.transport.stream.connect("cab1", "inbox")

        def sender():
            for _ in range(3):
                yield from connection.send(size=8_000)
        a.spawn(sender())

        # Pull the rug twice while the stream is in flight.
        def saboteur():
            monitor = system.cab("cab2")
            for _ in range(2):
                yield from monitor.kernel.sleep(300_000)
                yield from monitor.datalink.command_first_hop(
                    CommandOp.SV_RESET_HUB)
        system.cab("cab2").spawn(saboteur())
        system.run(until=120_000_000_000)
        assert results == [8_000, 8_000, 8_000]
        assert hub.crossbar.connection_count == 0

    def test_reset_port_clears_state(self):
        system = single_hub_system(3)
        hub = system.hub("hub0")
        hub.ready_bits[5] = False
        def admin():
            yield from system.cab("cab0").datalink.command_first_hop(
                CommandOp.SV_RESET_PORT, 5)
        system.cab("cab0").spawn(admin())
        system.run(until=10_000_000)
        assert hub.ready_bits[5] is True


class TestLinkFailureRerouting:
    def build_ring(self):
        """Three hubs in a ring: two disjoint paths between any pair."""
        system = NectarSystem()
        hubs = [system.add_hub(f"hub{i}") for i in range(3)]
        system.connect_hubs(hubs[0], hubs[1])
        system.connect_hubs(hubs[1], hubs[2])
        system.connect_hubs(hubs[2], hubs[0])
        src = system.add_cab("src", hubs[0])
        dst = system.add_cab("dst", hubs[1])
        return system.finalize(), src, dst

    def test_mark_link_down_reroutes(self):
        system, src, dst = self.build_ring()
        direct = system.router.route("src", "dst")
        assert direct.hub_count == 2          # hub0 -> hub1 directly
        removed = system.router.mark_link_down("hub0", "hub1")
        assert removed == 1
        detour = system.router.route("src", "dst")
        assert detour.hub_count == 3          # hub0 -> hub2 -> hub1
        assert [hop.hub.name for hop in detour.hops] == \
            ["hub0", "hub2", "hub1"]

    def test_traffic_resumes_after_failover(self):
        system, src, dst = self.build_ring()
        inbox = dst.create_mailbox("inbox")
        results = []

        def receiver():
            for _ in range(2):
                message = yield from dst.kernel.wait(inbox.get())
                results.append((message.size, system.now))
        dst.spawn(receiver())

        def sender():
            yield from src.transport.datagram.send("dst", "inbox",
                                                   size=100)
            # Operator takes the direct link down between messages.
            system.router.mark_link_down("hub0", "hub1")
            yield from src.transport.datagram.send("dst", "inbox",
                                                   size=200)
        src.spawn(sender())
        system.run(until=60_000_000)
        assert [size for size, _t in results] == [100, 200]

    def test_partial_parallel_failure_keeps_pair_connected(self):
        system = NectarSystem()
        hub_a = system.add_hub("a")
        hub_b = system.add_hub("b")
        pa1, _pb1 = system.connect_hubs(hub_a, hub_b)
        system.connect_hubs(hub_a, hub_b)
        system.add_cab("s", hub_a)
        system.add_cab("d", hub_b)
        system.finalize()
        assert system.router.mark_link_down("a", "b", port_a=pa1) == 1
        remaining = system.router.parallel_links("a", "b")
        assert len(remaining) == 1
        route = system.router.route("s", "d")
        assert route.hops[0].out_port == remaining[0][0]

    def test_total_isolation_raises(self):
        from repro.errors import RouteError
        system, src, dst = self.build_ring()
        system.router.mark_link_down("hub0", "hub1")
        system.router.mark_link_down("hub0", "hub2")
        with pytest.raises(RouteError):
            system.router.route("src", "dst")
