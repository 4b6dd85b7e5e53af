"""Unit tests for time/bandwidth units and the tracer."""

import pytest

from repro.sim import Tracer, units


class TestUnits:
    def test_constants(self):
        assert units.MICROSECOND == 1_000
        assert units.MILLISECOND == 1_000_000
        assert units.SECOND == 1_000_000_000

    def test_us_conversion(self):
        assert units.us(12.5) == 12_500

    def test_ms_conversion(self):
        assert units.ms(2) == 2_000_000

    def test_fiber_rate_is_80ns_per_byte(self):
        rate = units.megabits_per_second(100.0)
        assert units.byte_time(rate) == pytest.approx(80.0)

    def test_vme_rate_is_100ns_per_byte(self):
        rate = units.megabytes_per_second(10.0)
        assert units.byte_time(rate) == pytest.approx(100.0)

    def test_transfer_time_1kb_fiber(self):
        rate = units.megabits_per_second(100.0)
        assert units.transfer_time(1024, rate) == 81_920

    def test_transfer_time_zero_bytes(self):
        assert units.transfer_time(0, 1.0) == 0

    def test_transfer_time_minimum_one_tick(self):
        assert units.transfer_time(1, 1e9) == 1

    def test_throughput_roundtrip(self):
        # 1 MB in 1 ms = 8000 Mb/s
        assert units.throughput_mbps(1_000_000, units.ms(1)) == \
            pytest.approx(8000.0)
        assert units.throughput_mbytes(1_000_000, units.ms(1)) == \
            pytest.approx(1000.0)

    def test_throughput_zero_time(self):
        assert units.throughput_mbps(100, 0) == 0.0

    def test_to_us_to_ms(self):
        assert units.to_us(2_500) == 2.5
        assert units.to_ms(2_500_000) == 2.5


class TestTracer:
    def test_disabled_by_default(self, sim):
        tracer = Tracer(sim)
        tracer.record("hub0", "open")
        assert tracer.records == []

    def test_records_when_enabled(self, sim):
        tracer = Tracer(sim)
        tracer.enable()
        sim.call_at(100, lambda: tracer.record("hub0", "open", port=3))
        sim.run()
        [record] = tracer.records
        assert record.time == 100
        assert record.source == "hub0"
        assert record["port"] == 3

    def test_find_by_source(self, sim):
        tracer = Tracer(sim)
        tracer.enable()
        tracer.record("hub0", "open")
        tracer.record("hub1", "open")
        assert tracer.count(source="hub1") == 1

    def test_ring_limit(self, sim):
        tracer = Tracer(sim)
        tracer.set_limit(3)
        tracer.enable()
        for index in range(10):
            tracer.record("x", "k", i=index)
        assert len(tracer.records) == 3
        assert tracer.records[-1]["i"] == 9

    def test_clear(self, sim):
        tracer = Tracer(sim)
        tracer.enable()
        tracer.record("x", "k")
        tracer.clear()
        assert tracer.count() == 0
