"""Unit tests for CAB devices: CPU, DMA, VME, timers, checksum unit."""

import pytest

from repro.config import (INTERRUPT_OVERHEAD_NS, SOFTWARE_CHECKSUM_NS_PER_BYTE,
                          CabConfig, NectarConfig)
from repro.hardware import (CabBoard, Hub, Packet, Payload,
                            wire_cab_to_hub)
from repro.hardware.checksum import ChecksumUnit
from repro.hardware.timers import HardwareTimers
from repro.hardware.vme import VmeBus
from repro.sim import Simulator


@pytest.fixture
def board(sim):
    return CabBoard(sim, "cab", CabConfig())


class TestCabCpu:
    def test_serialises_work(self, sim, board):
        order = []

        def worker(tag, cost):
            yield from board.cpu.execute(cost)
            order.append((tag, sim.now))
        sim.process(worker("a", 100))
        sim.process(worker("b", 50))
        sim.run()
        assert order == [("a", 100), ("b", 150)]
        assert board.cpu.busy_ns == 150

    def test_interrupt_adds_overhead(self, sim, board):
        def handler():
            yield from board.cpu.execute_interrupt(1_000)
        sim.process(handler())
        sim.run()
        assert sim.now == 1_000 + INTERRUPT_OVERHEAD_NS
        assert board.cpu.interrupt_count == 1

    def test_zero_cost_is_free(self, sim, board):
        def worker():
            yield from board.cpu.execute(0)
            return sim.now
        proc = sim.process(worker())
        sim.run()
        assert proc.value == 0

    def test_utilization(self, sim, board):
        def worker():
            yield from board.cpu.execute(500)
            yield sim.timeout(500)
        sim.process(worker())
        sim.run()
        assert board.cpu.utilization() == pytest.approx(0.5)


class TestVme:
    def test_transfer_rate_10_mbytes(self, sim):
        bus = VmeBus(sim, "vme")

        def mover():
            yield from bus.transfer(1000)
        sim.process(mover())
        sim.run()
        assert sim.now == 100_000          # 100 ns/byte at 10 MB/s
        assert bus.bytes_transferred == 1000

    def test_single_master(self, sim):
        bus = VmeBus(sim, "vme")
        finish = []

        def mover(tag):
            yield from bus.transfer(500)
            finish.append((tag, sim.now))
        sim.process(mover("a"))
        sim.process(mover("b"))
        sim.run()
        assert finish == [("a", 50_000), ("b", 100_000)]

    def test_interrupts_dispatch(self, sim):
        bus = VmeBus(sim, "vme")
        seen = []
        bus.on_node_interrupt(lambda vec: seen.append(("node", vec)))
        bus.on_cab_interrupt(lambda vec: seen.append(("cab", vec)))
        bus.interrupt_node(7)
        bus.interrupt_cab(9)
        assert seen == [("node", 7), ("cab", 9)]
        assert bus.interrupts_to_node == 1
        assert bus.interrupts_to_cab == 1

    def test_slower_requested_rate_respected(self, sim):
        bus = VmeBus(sim, "vme")

        def mover():
            yield from bus.transfer(1000, rate=0.005)   # 5 MB/s device
        sim.process(mover())
        sim.run()
        assert sim.now == 200_000


class TestTimers:
    def test_fires_at_deadline(self, sim):
        timers = HardwareTimers(sim)
        fired = []
        timers.set(1_000, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1_000]
        assert timers.expired == 1

    def test_cancel_prevents_firing(self, sim):
        timers = HardwareTimers(sim)
        fired = []
        handle = timers.set(1_000, lambda: fired.append(sim.now))
        assert handle.cancel()
        sim.run()
        assert fired == []
        assert timers.cancelled == 1

    def test_cancel_after_fire_returns_false(self, sim):
        timers = HardwareTimers(sim)
        handle = timers.set(10, lambda: None)
        sim.run()
        assert not handle.cancel()

    def test_negative_delay_rejected(self, sim):
        timers = HardwareTimers(sim)
        with pytest.raises(ValueError):
            timers.set(-1, lambda: None)


class TestChecksum:
    def test_hardware_unit_costs_nothing(self):
        unit = ChecksumUnit(CabConfig(hardware_checksum=True))
        assert unit.cost_ns(1_000_000) == 0

    def test_software_fallback_costs_per_byte(self):
        unit = ChecksumUnit(CabConfig(hardware_checksum=False))
        assert unit.cost_ns(100) == 100 * SOFTWARE_CHECKSUM_NS_PER_BYTE


class TestDma:
    def test_send_packet_holds_channel(self):
        cfg = NectarConfig()
        sim = Simulator()
        hub = Hub(sim, "hub0", cfg.hub, cfg.fiber)
        cab = CabBoard(sim, "cab", cfg.cab, cfg.fiber)
        wire_cab_to_hub(sim, cab, hub, 0)
        packets = [Packet("cab", payload=Payload(100, data=bytes(100)))
                   for _ in range(2)]
        finished = []

        def sender(packet, tag):
            yield from cab.dma.send_packet(packet)
            finished.append((tag, sim.now))
        sim.process(sender(packets[0], "a"))
        sim.process(sender(packets[1], "b"))
        sim.run(until=1_000_000)
        assert len(finished) == 2
        assert finished[0][0] == "a"
        # Second send cannot finish before the first released the channel.
        assert finished[1][1] > finished[0][1]
        assert cab.dma.bytes_out == 2 * 102

    def test_drain_waits_for_tail(self, sim, board):
        def drainer():
            yield from board.dma.drain_input(1000, tail_time=50_000)
        sim.process(drainer())
        sim.run()
        assert sim.now >= 50_000
        assert board.dma.bytes_in == 1000
