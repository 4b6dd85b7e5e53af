"""Tests for the CAB CPU's interrupt-preemption model (§6.2.1).

"The datalink code is executed entirely by interrupt handlers" and the
transport upcall must meet the input-queue deadline — which requires
interrupts to preempt long-running thread computation.
"""

import pytest

from repro.config import INTERRUPT_OVERHEAD_NS
from repro.hardware.cab import CabBoard, CabCpu
from repro.sim import Simulator


@pytest.fixture
def cpu(sim):
    return CabCpu(sim, "cpu")


class TestPreemption:
    def test_interrupt_jumps_long_compute(self, sim, cpu):
        """An interrupt arriving mid-compute starts within one quantum."""
        events = {}

        def long_thread():
            yield from cpu.execute(100_000)          # 100 µs of work
            events["thread_done"] = sim.now

        def interrupt():
            yield sim.timeout(23_000)                # arrives mid-compute
            start = sim.now
            yield from cpu.execute_interrupt(1_000)
            events["interrupt_latency"] = sim.now - start
        sim.process(long_thread())
        sim.process(interrupt())
        sim.run()
        overhead = INTERRUPT_OVERHEAD_NS
        assert events["interrupt_latency"] <= \
            CabCpu.QUANTUM_NS + overhead + 1_000
        # The thread still completes, pushed back by the interrupt time.
        assert events["thread_done"] == 100_000 + overhead + 1_000

    def test_cpu_time_conserved_under_preemption(self, sim, cpu):
        def thread():
            yield from cpu.execute(50_000)

        def interrupt():
            yield sim.timeout(10_000)
            yield from cpu.execute_interrupt(5_000)
        sim.process(thread())
        sim.process(interrupt())
        sim.run()
        expected = 50_000 + 5_000 + INTERRUPT_OVERHEAD_NS
        assert cpu.busy_ns == expected
        assert sim.now == expected

    def test_interrupts_fifo_among_themselves(self, sim, cpu):
        order = []

        def handler(tag, arrival):
            yield sim.timeout(arrival)
            yield from cpu.execute_interrupt(10_000)
            order.append(tag)
        sim.process(handler("first", 0))
        sim.process(handler("second", 1_000))
        sim.run()
        assert order == ["first", "second"]

    def test_quantum_boundaries(self, sim, cpu):
        """Thread compute is chunked: a 25 µs job takes 3 grants."""
        grants = []
        original = cpu._resource.acquire

        def counting_acquire(priority=False):
            grants.append(sim.now)
            return original(priority)
        cpu._resource.acquire = counting_acquire

        def thread():
            yield from cpu.execute(25_000)
        sim.process(thread())
        sim.run()
        assert len(grants) == 3                  # 10 + 10 + 5 µs
        assert sim.now == 25_000

    def test_zero_cost_free(self, sim, cpu):
        def thread():
            yield from cpu.execute(0)
            return sim.now
        proc = sim.process(thread())
        sim.run()
        assert proc.value == 0

    def test_interrupt_always_pays_dispatch(self, sim, cpu):
        def handler():
            yield from cpu.execute_interrupt(0)
            return sim.now
        proc = sim.process(handler())
        sim.run()
        assert proc.value == INTERRUPT_OVERHEAD_NS
        assert cpu.interrupt_count == 1


class TestCabReceiveBacklog:
    def test_packets_before_handler_are_replayed(self, sim):
        from repro.config import NectarConfig
        from repro.hardware import Hub, Packet, Payload, wire_cab_to_hub
        cfg = NectarConfig()
        hub = Hub(sim, "hub0", cfg.hub, cfg.fiber)
        src = CabBoard(sim, "src", cfg.cab, cfg.fiber)
        dst = CabBoard(sim, "dst", cfg.cab, cfg.fiber)
        wire_cab_to_hub(sim, src, hub, 0)
        wire_cab_to_hub(sim, dst, hub, 1)
        src.on_receive(lambda *a: iter(()))
        from repro.hardware import CommandOp, HubCommand
        src.transmit(Packet("src",
                            commands=[HubCommand(CommandOp.OPEN, "hub0", 1,
                                                 origin="src")],
                            payload=Payload(32, data=bytes(32))))
        sim.run(until=1_000_000)
        assert dst._rx_backlog            # arrived, nobody listening
        got = []

        def late_handler(packet, size, head, tail):
            got.append(packet)
            dst.signal_input_drained()
            yield sim.timeout(0)
        dst.on_receive(late_handler)
        sim.run(until=2_000_000)
        assert len(got) == 1

    def test_expect_reply_conflict(self, sim):
        from repro.config import NectarConfig
        from repro.hardware import CommandOp, HubCommand
        cfg = NectarConfig()
        cab = CabBoard(sim, "cab", cfg.cab, cfg.fiber)
        command = HubCommand(CommandOp.OPEN_REPLY, "hub", 1)
        cab.expect_reply(command)
        with pytest.raises(RuntimeError):
            cab.expect_reply(command)     # its reply is already awaited
        cab.cancel_reply(command)
        cab.expect_reply(command)         # fine after cancellation
        assert command.seq == 2           # a fresh key from the board

    def test_transmit_unwired_raises(self, sim):
        from repro.config import NectarConfig
        from repro.hardware import Packet, Payload
        cfg = NectarConfig()
        cab = CabBoard(sim, "cab", cfg.cab, cfg.fiber)
        with pytest.raises(RuntimeError):
            cab.transmit(Packet("cab", payload=Payload(1, data=b"x")))

    def test_stray_reply_counted(self, sim):
        from repro.config import NectarConfig
        from repro.hardware import Reply
        cfg = NectarConfig()
        cab = CabBoard(sim, "cab", cfg.cab, cfg.fiber)
        cab.deliver(Reply(seq=999, ok=True, hub_id="h"), 3)
        assert cab.counters["stray_replies"] == 1
