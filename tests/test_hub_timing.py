"""Cycle-exact HUB timing: the §4 design-goal numbers (experiments E1-E3).

These tests instrument a HUB at the fiber level so the measured intervals
are exactly the ones the paper quotes: command arrival → first data byte
out (10 cycles), established-connection byte latency (5 cycles), and
controller switching rate (one connection per 70 ns cycle).
"""

import pytest

from repro.config import (PORT_COMMAND_CYCLES, SETUP_CYCLES, TRANSFER_CYCLES,
                          NectarConfig)
from repro.hardware import (CabBoard, CommandOp, Hub, HubCommand, Packet,
                            Payload, wire_cab_to_hub)
from repro.sim import Simulator


class RecordingCab(CabBoard):
    """A CAB that records head-arrival times."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.heads = []
        self.on_receive(self._record)

    def _record(self, packet, size, head, tail):
        self.heads.append((head, packet))
        self.signal_input_drained()
        yield self.sim.timeout(0)


@pytest.fixture
def timing_rig():
    cfg = NectarConfig()
    sim = Simulator()
    hub = Hub(sim, "hub0", cfg.hub, cfg.fiber)
    src = RecordingCab(sim, "src", cfg.cab, cfg.fiber)
    dst = RecordingCab(sim, "dst", cfg.cab, cfg.fiber)
    wire_cab_to_hub(sim, src, hub, 0)
    wire_cab_to_hub(sim, dst, hub, 1)
    return cfg, sim, hub, src, dst


def fiber_hop_ns(cfg):
    """Propagation plus one byte of serialisation (head transfer time)."""
    return cfg.fiber.propagation_ns + round(cfg.fiber.ns_per_byte)


class TestE1SetupLatency:
    def test_connection_setup_plus_first_byte_is_10_cycles(self, timing_rig):
        """§4 goal 1: open + first byte through the HUB in 700 ns."""
        cfg, sim, hub, src, dst = timing_rig
        payload = Payload(1, data=b"x")
        packet = Packet("src",
                        commands=[HubCommand(CommandOp.OPEN, "hub0", 1,
                                             origin="src")],
                        payload=payload, header_bytes=0)
        src.transmit(packet)
        sim.run(until=1_000_000)
        [(head_at_dst, _pkt)] = dst.heads
        hop = fiber_hop_ns(cfg)
        # Wire size = 3 command bytes + 2 framing + 1 data.  The command's
        # 3 bytes must arrive before extraction can finish; the paper's 10
        # cycles are measured from command arrival at the port.
        command_arrival = hop
        hub_latency = (head_at_dst - hop) - command_arrival
        assert hub_latency == SETUP_CYCLES * cfg.hub.cycle_ns == 700

    def test_established_connection_is_5_cycles(self, timing_rig):
        """§4 goal 1: a byte through an open connection takes 350 ns."""
        cfg, sim, hub, src, dst = timing_rig
        src.transmit(Packet("src",
                            commands=[HubCommand(CommandOp.OPEN, "hub0", 1,
                                                 origin="src")]))
        sim.run(until=1_000_000)
        assert hub.crossbar.owner_of(1) == 0
        start = sim.now
        src.transmit(Packet("src", payload=Payload(1, data=b"y"),
                            header_bytes=0))
        sim.run(until=start + 1_000_000)
        head_at_dst = dst.heads[-1][0]
        hop = fiber_hop_ns(cfg)
        hub_latency = (head_at_dst - start) - 2 * hop
        assert hub_latency == TRANSFER_CYCLES * cfg.hub.cycle_ns == 350


class TestE2SwitchingRate:
    def test_controller_executes_one_command_per_cycle(self, timing_rig):
        """§4 goal 2: a new connection through the crossbar every 70 ns."""
        cfg, sim, hub, src, dst = timing_rig
        # 8 opens in one command packet: the controller must complete all
        # of them at one per cycle once each command has been extracted.
        commands = [HubCommand(CommandOp.OPEN, "hub0", port, origin="src")
                    for port in range(2, 10)]
        src.transmit(Packet("src", commands=commands))
        sim.run(until=1_000_000)
        assert hub.controller.commands_executed == 8
        assert all(hub.crossbar.owner_of(port) == 0 for port in range(2, 10))

    def test_switching_rate_is_cycle_limited(self, timing_rig):
        cfg, sim, hub, src, dst = timing_rig
        assert 1e9 / cfg.hub.cycle_ns == pytest.approx(14_285_714, rel=0.01)


class TestE3SingleHubConnectionUnderOneMicrosecond:
    def test_reply_arrival_time_exact(self, timing_rig):
        """§2.3: connection through a single HUB in under 1 µs.

        Measured from command arrival at the HUB port to reply arrival
        back at the CAB (both fiber hops excluded, as the goals exclude
        fiber transmission delays): port 4 cycles + controller 1 cycle +
        reply transfer 5 cycles."""
        cfg, sim, hub, src, dst = timing_rig
        cmd = HubCommand(CommandOp.OPEN_RETRY_REPLY, "hub0", 1,
                         origin="src")
        reply_event = src.expect_reply(cmd)
        arrival = {}
        reply_event.add_callback(lambda ev: arrival.setdefault("t", sim.now))
        src.transmit(Packet("src", commands=[cmd]))
        sim.run(until=1_000_000)
        assert reply_event.value.ok
        hop = fiber_hop_ns(cfg)
        reply_hop = cfg.fiber.propagation_ns + 3 * round(cfg.fiber.ns_per_byte)
        cycles = PORT_COMMAND_CYCLES + 1 + TRANSFER_CYCLES
        internal = cycles * cfg.hub.cycle_ns
        assert arrival["t"] == hop + internal + reply_hop
        # End to end (including both fiber hops) the connection is
        # confirmed well under 2 µs; excluding fibers it is under 1 µs.
        assert arrival["t"] - hop - reply_hop < 1_000
