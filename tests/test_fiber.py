"""Unit tests for fiber links: timing, cut-through, FIFO, fault injection."""

import random

import pytest

from repro.config import FiberConfig
from repro.hardware.fiber import Fiber
from repro.hardware.frames import Packet, Payload


class Sink:
    """A trivial fiber endpoint recording arrivals."""

    def __init__(self):
        self.arrivals = []

    def deliver(self, item, wire_size):
        self.arrivals.append((item, wire_size))


def make_packet(size=100, origin="test"):
    return Packet(origin, payload=Payload(size, data=bytes(size)))


class TestTiming:
    def test_head_arrives_after_prop_plus_one_byte(self, sim):
        cfg = FiberConfig(propagation_ns=50)
        fiber = Fiber(sim, cfg, "f")
        sink = Sink()
        fiber.connect(sink)
        packet = make_packet(100)
        times = []
        original = sink.deliver
        sink.deliver = lambda item, size: times.append(sim.now) or \
            original(item, size)
        fiber.send(packet)
        sim.run()
        assert times == [50 + 80]  # propagation + one byte at 80 ns

    def test_sender_busy_for_full_serialization(self, sim):
        cfg = FiberConfig()
        fiber = Fiber(sim, cfg, "f")
        fiber.connect(Sink())
        packet = make_packet(100)
        done = fiber.send(packet)
        sim.run()
        # wire size = 100 payload + 2 framing = 102 bytes * 80 ns
        assert done.processed
        assert sim.now >= 102 * 80

    def test_fifo_serialisation(self, sim):
        cfg = FiberConfig(propagation_ns=0)
        fiber = Fiber(sim, cfg, "f")
        sink = Sink()
        fiber.connect(sink)
        first = make_packet(100)
        second = make_packet(50)
        fiber.send(first)
        fiber.send(second)
        sim.run()
        assert [item for item, _size in sink.arrivals] == [first, second]
        assert fiber.packets_sent == 2

    def test_priority_send_bypasses_queue(self, sim):
        from repro.hardware.frames import Reply
        cfg = FiberConfig(propagation_ns=0)
        fiber = Fiber(sim, cfg, "f")
        sink = Sink()
        fiber.connect(sink)
        fiber.send(make_packet(1000))          # ~80 µs of occupancy
        fiber.send_priority(Reply(seq=1, ok=True, hub_id="h"))
        arrival_times = {}
        original = sink.deliver
        sink.deliver = lambda item, size: arrival_times.setdefault(
            type(item).__name__, sim.now) or original(item, size)
        sim.run()
        # The reply steals cycles: it lands within its own 3-byte
        # serialisation window instead of waiting out the data packet.
        assert arrival_times["Reply"] <= 3 * 80
        assert arrival_times["Reply"] < 1000 * 80

    def test_tail_delay(self, sim):
        fiber = Fiber(sim, FiberConfig(), "f")
        assert fiber.tail_delay(100) == 100 * 80 - 80


class TestTransmitStateMachine:
    """The transmit side is idle or busy; there is no transmitter process."""

    def timed_sink(self, sim, fiber):
        heads = []
        sink = Sink()
        sink.deliver = lambda item, size: heads.append((sim.now, item))
        fiber.connect(sink)
        return heads

    def test_back_to_back_sends_finish_at_the_closed_form(self, sim):
        fiber = Fiber(sim, FiberConfig(propagation_ns=40), "f")
        heads = self.timed_sink(sim, fiber)
        packets = [make_packet(size) for size in (100, 7, 512, 64)]
        finished = {}
        for index, packet in enumerate(packets):
            fiber.send(packet).add_callback(
                lambda _e, index=index: finished.setdefault(index, sim.now))
        assert fiber._sending is not None and len(fiber._backlog) == 3
        sim.run()
        tails, starts, clock = [], [], 0
        for packet in packets:
            starts.append(clock)
            clock += packet.wire_size() * 80
            tails.append(clock)
        assert [finished[i] for i in range(4)] == tails
        # A send that found the line busy starts at the previous tail:
        # its head lands one propagation + one byte time after that.
        assert heads == [(start + 40 + 80, packet)
                         for start, packet in zip(starts, packets)]
        assert fiber._sending is None and not fiber._backlog
        assert (fiber.packets_sent, fiber.bytes_sent) \
            == (4, sum(p.wire_size() for p in packets))

    def test_idle_line_starts_inside_send(self, sim):
        fiber = Fiber(sim, FiberConfig(propagation_ns=0), "f")
        heads = self.timed_sink(sim, fiber)
        sim.run(until=1_000)
        events_before = sim.events_processed
        done = fiber.send(make_packet(10))
        assert fiber._sending is not None and not fiber._backlog
        sim.run()
        assert heads[0][0] == 1_000 + 80 and done.processed
        # Head arrival, tail departure, done: time passes twice and one
        # caller waits.  Nothing else is on the agenda.
        assert sim.events_processed - events_before == 3

    def test_fault_draws_are_one_per_packet_in_send_order(self, sim):
        rng, reference = random.Random(7), random.Random(7)
        fiber = Fiber(sim, FiberConfig(drop_probability=0.5), "f", rng=rng)
        fiber.connect(Sink())
        packets = [make_packet(20) for _ in range(32)]
        for packet in packets[:20]:
            fiber.send(packet)  # one starts, nineteen wait their turn
        sim.run()
        for packet in packets[20:]:
            fiber.send(packet)
            sim.run()  # every one of these finds the line idle
        expected = [reference.random() < 0.5 for _ in packets]
        assert [p.framing_error for p in packets] == expected
        assert 0 < sum(expected) < 32
        assert rng.getstate() == reference.getstate()
        assert fiber.packets_dropped == sum(expected)

    def test_downed_fiber_still_fires_done_and_drains_its_backlog(self, sim):
        from repro.hardware.frames import Reply
        fiber = Fiber(sim, FiberConfig(propagation_ns=0), "f")
        heads = self.timed_sink(sim, fiber)
        fiber.set_fault(down=True)
        first, second = make_packet(10), make_packet(10)
        dones = [fiber.send(first),
                 fiber.send(Reply(seq=1, ok=True, hub_id="h")),
                 fiber.send(second)]
        sim.run()
        assert all(done.processed and done.ok for done in dones)
        # Damaged packets still arrive (and drain queues); the reply
        # vanished but held the line for its serialisation time.
        assert [item for _t, item in heads] == [first, second]
        assert first.framing_error and second.framing_error
        assert heads[1][0] - heads[0][0] == (12 + 3) * 80
        assert fiber.packets_dropped == 3 and fiber.packets_sent == 3
        assert fiber._sending is None and not fiber._backlog


class TestFaults:
    def test_drop_probability_one_damages_every_packet(self, sim):
        cfg = FiberConfig(drop_probability=1.0)
        fiber = Fiber(sim, cfg, "f", rng=random.Random(1))
        sink = Sink()
        fiber.connect(sink)
        done = fiber.send(make_packet())
        sim.run()
        # Damaged packets still arrive (framing error detected at the
        # receiver) so flow-control accounting stays sound.
        [(received, _size)] = sink.arrivals
        assert received.framing_error
        assert fiber.packets_dropped == 1
        assert done.processed  # the sender still finishes serialising

    def test_dropped_replies_vanish(self, sim):
        from repro.hardware.frames import Reply
        cfg = FiberConfig(drop_probability=1.0)
        fiber = Fiber(sim, cfg, "f", rng=random.Random(1))
        sink = Sink()
        fiber.connect(sink)
        fiber.send(Reply(seq=1, ok=True, hub_id="h"))
        sim.run()
        assert sink.arrivals == []

    def test_corruption_marks_payload(self, sim):
        cfg = FiberConfig(corrupt_probability=1.0)
        fiber = Fiber(sim, cfg, "f", rng=random.Random(1))
        sink = Sink()
        fiber.connect(sink)
        packet = make_packet()
        fiber.send(packet)
        sim.run()
        [(received, _size)] = sink.arrivals
        assert received.payload.corrupt

    def test_healthy_fiber_never_drops(self, sim):
        fiber = Fiber(sim, FiberConfig(), "f", rng=random.Random(1))
        sink = Sink()
        fiber.connect(sink)
        for _ in range(20):
            fiber.send(make_packet(10))
        sim.run()
        assert len(sink.arrivals) == 20
        assert fiber.packets_dropped == 0


class TestFaultStreamIndependence:
    """Regression: every fiber used to default to ``random.Random(0)``,
    so all links made identical drop decisions in lockstep."""

    def test_default_streams_differ_per_link(self, sim):
        cfg = FiberConfig(drop_probability=0.5)
        first, second = Fiber(sim, cfg, "a"), Fiber(sim, cfg, "b")
        sinks = (Sink(), Sink())
        first.connect(sinks[0])
        second.connect(sinks[1])
        for _ in range(64):
            first.send(make_packet(10))
            second.send(make_packet(10))
        sim.run()
        patterns = [
            [item.framing_error for item, _size in sink.arrivals]
            for sink in sinks]
        assert patterns[0] != patterns[1]
        assert 0 < first.packets_dropped < 64

    def test_builder_derives_streams_from_config_seed(self):
        from repro.config import NectarConfig
        from repro.topology import single_hub_system

        def streams(seed):
            system = single_hub_system(2, cfg=NectarConfig(seed=seed))
            fibers = (system.cab("cab0").board.out_fiber,
                      system.cab("cab1").board.out_fiber)
            return [[fiber.rng.random() for _ in range(8)]
                    for fiber in fibers]

        first = streams(7)
        assert first[0] != first[1], "links must not share one stream"
        assert first == streams(7), "same seed, same streams"
        assert first != streams(8)


class TestStreamsMadeAtFirstDraw:
    """No fiber or datalink seeds its RNG until something draws from it;
    when something does, it is the stream an eager build would have made."""

    @staticmethod
    def draws(rng):
        return [rng.random() for _ in range(8)]

    def test_wired_fibers_draw_the_config_stream(self):
        from repro.config import NectarConfig
        from repro.topology import dual_link_system

        cfg = NectarConfig(seed=11)
        system = dual_link_system(1, cfg=cfg)
        port = system.hubs["hub0"].port(0)          # inter-HUB link 0
        fibers = (system.cab("cab0_0").board.out_fiber, port.out_fiber,
                  port.peer.out_fiber)
        for fiber in fibers:
            assert fiber._rng is None
            assert self.draws(fiber.rng) \
                == self.draws(cfg.rng_stream(fiber.name))
            assert fiber.rng is fiber.rng, "one stream per fiber, kept"

    def test_datalink_draws_the_dl_stream(self):
        from repro.config import NectarConfig
        from repro.topology import single_hub_system

        cfg = NectarConfig(seed=11)
        datalink = single_hub_system(2, cfg=cfg).cab("cab1").datalink
        assert datalink._rng is None
        assert self.draws(datalink.rng) \
            == self.draws(cfg.rng_stream("dl:cab1"))
        assert datalink.rng is datalink.rng

    def test_boundary_fiber_draws_the_single_process_stream(self):
        from repro.config import NectarConfig
        from repro.scaleout import partition_fabric
        from repro.scaleout.partition import PartitionSystem
        from repro.topology.fabrics import build_system, torus_fabric

        cfg = NectarConfig(seed=11)
        fabric = torus_fabric((2, 2))
        whole = build_system(fabric, cfg)
        partitioning = partition_fabric(fabric, 2)
        hub_a, port_a, _hub_b, _port_b = partitioning.cut_links()[0]
        part = PartitionSystem(partitioning,
                               partitioning.owner_map()[hub_a], cfg)
        boundary = part.hubs[hub_a].port(port_a).out_fiber
        twin = whole.hubs[hub_a].port(port_a).out_fiber
        assert type(boundary) is not type(twin)
        assert boundary.name == twin.name and boundary._rng is None
        assert self.draws(boundary.rng) == self.draws(twin.rng)

    def test_first_fault_draw_seeds_the_stream(self, sim):
        calls = []

        def factory(name):
            calls.append(name)
            return random.Random(name)
        fiber = Fiber(sim, FiberConfig(), "lazy", rng_factory=factory)
        fiber.connect(Sink())
        fiber.send(make_packet(10))
        sim.run()
        assert calls == [], "a healthy link never draws"
        fiber.set_fault(drop=0.5)
        for _ in range(4):
            fiber.send(make_packet(10))
        sim.run()
        assert calls == ["lazy"], "seeded once, at the first draw"


class TestWiring:
    def test_unterminated_fiber_is_error(self, sim):
        fiber = Fiber(sim, FiberConfig(), "f")
        fiber.send(make_packet())
        with pytest.raises(RuntimeError):
            sim.run()

    def test_double_connect_rejected(self, sim):
        fiber = Fiber(sim, FiberConfig(), "f")
        fiber.connect(Sink())
        with pytest.raises(RuntimeError):
            fiber.connect(Sink())

    def test_unsized_item_rejected(self, sim):
        fiber = Fiber(sim, FiberConfig(), "f")
        fiber.connect(Sink())
        with pytest.raises(TypeError):
            fiber.send(object())
