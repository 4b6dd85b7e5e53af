"""Unit + property tests for CAB memory: pools, allocator, protection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MEMORY_BYTES_PER_NS, VME_BYTES_PER_NS
from repro.errors import AllocationError, ProtectionFault
from repro.hardware.memory import (ALL_ACCESS, KERNEL_DOMAIN, READ, WRITE,
                                   EXECUTE, BandwidthPool, MemoryRegion,
                                   ProtectionUnit)
from repro.sim import Simulator


@pytest.fixture
def region(sim):
    return MemoryRegion(sim, "data", 64 * 1024)


class TestBandwidthPool:
    def test_uncontended_stream_gets_nominal_rate(self, sim):
        pool = BandwidthPool(sim, capacity_bytes_per_ns=0.066)
        assert pool.effective_rate(0.0125) == 0.0125

    def test_oversubscription_scales_fairly(self, sim):
        pool = BandwidthPool(sim, capacity_bytes_per_ns=0.066)
        pool.open_stream(0.05)
        pool.open_stream(0.05)
        # demand 0.10 + 0.05 = 0.15 > 0.066 -> scale by 0.066/0.15
        rate = pool.effective_rate(0.05)
        assert rate == pytest.approx(0.05 * 0.066 / 0.15)

    def test_default_config_streams_fit(self, sim):
        """§5.2: 66 MB/s sustains CPU + 2 fiber DMAs + VME concurrently."""
        pool = BandwidthPool(sim, MEMORY_BYTES_PER_NS)
        fiber = 0.0125
        demand = 2 * fiber + VME_BYTES_PER_NS
        pool.open_stream(fiber)
        pool.open_stream(fiber)
        pool.open_stream(VME_BYTES_PER_NS)
        assert pool.demand == pytest.approx(demand)
        assert pool.effective_rate(fiber) == fiber  # no slowdown

    def test_transfer_times(self, sim):
        pool = BandwidthPool(sim, capacity_bytes_per_ns=0.1)
        done = sim.process(pool.transfer(1000, 0.1))
        sim.run()
        assert sim.now == 10_000
        assert pool.bytes_moved == 1000

    def test_close_stream_restores_capacity(self, sim):
        pool = BandwidthPool(sim, capacity_bytes_per_ns=0.066)
        handle = pool.open_stream(0.066)
        pool.close_stream(handle)
        assert pool.demand == 0


class TestAllocator:
    def test_alloc_and_free(self, region):
        block = region.alloc(1024)
        assert block.size == 1024
        assert region.allocated_bytes == 1024
        region.free(block)
        assert region.allocated_bytes == 0

    def test_first_fit_reuses_freed_space(self, region):
        a = region.alloc(1000)
        b = region.alloc(1000)
        region.free(a)
        c = region.alloc(500)
        assert c.offset == 0  # reused the first hole

    def test_exhaustion_raises(self, region):
        region.alloc(60 * 1024)
        with pytest.raises(AllocationError):
            region.alloc(8 * 1024)

    def test_double_free_raises(self, region):
        block = region.alloc(100)
        region.free(block)
        with pytest.raises(AllocationError):
            region.free(block)

    def test_foreign_block_rejected(self, sim, region):
        other = MemoryRegion(sim, "other", 1024)
        block = other.alloc(10)
        with pytest.raises(AllocationError):
            region.free(block)

    def test_coalescing_allows_full_realloc(self, region):
        blocks = [region.alloc(8 * 1024) for _ in range(8)]
        for block in blocks:
            region.free(block)
        big = region.alloc(64 * 1024)   # only possible if holes merged
        assert big.size == 64 * 1024

    def test_zero_alloc_rejected(self, region):
        with pytest.raises(AllocationError):
            region.alloc(0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 4096), min_size=1, max_size=40),
       st.data())
def test_allocator_never_overlaps_and_never_leaks(sizes, data):
    """Property: live blocks never overlap; free space is conserved."""
    sim = Simulator()
    region = MemoryRegion(sim, "r", 256 * 1024)
    live = []
    for size in sizes:
        try:
            live.append(region.alloc(size))
        except AllocationError:
            continue
        if live and data.draw(st.booleans()):
            victim = live.pop(data.draw(
                st.integers(0, len(live) - 1)))
            region.free(victim)
        spans = sorted((b.offset, b.end) for b in live)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2, "overlapping allocations"
        assert region.allocated_bytes == sum(b.size for b in live)


class TestProtection:
    def make(self):
        return ProtectionUnit(address_space=64 * 1024)

    def test_kernel_domain_full_access(self):
        unit = self.make()
        unit.check(KERNEL_DOMAIN, 0, 64 * 1024, READ | WRITE | EXECUTE)

    def test_user_domain_denied_by_default(self):
        unit = self.make()
        with pytest.raises(ProtectionFault):
            unit.check(3, 0, 16, READ)
        assert unit.faults == 1

    def test_grant_enables_access(self):
        unit = self.make()
        unit.grant(3, 2048, 1024, READ | WRITE)
        unit.check(3, 2048, 1024, READ)
        unit.check(3, 2500, 100, WRITE)

    def test_grant_is_page_granular(self):
        """§5.2: each 1 KB page protected separately."""
        unit = self.make()
        unit.grant(3, 1024, 1, READ)           # touches only page 1
        unit.check(3, 2047, 1, READ)
        with pytest.raises(ProtectionFault):
            unit.check(3, 2048, 1, READ)       # page 2 untouched

    def test_partial_permission_denied(self):
        unit = self.make()
        unit.grant(3, 0, 1024, READ)
        with pytest.raises(ProtectionFault):
            unit.check(3, 0, 16, READ | WRITE)

    def test_revoke(self):
        unit = self.make()
        unit.grant(3, 0, 1024, ALL_ACCESS)
        unit.revoke(3, 0, 1024)
        with pytest.raises(ProtectionFault):
            unit.check(3, 0, 1, READ)

    def test_cross_page_extent_requires_all_pages(self):
        unit = self.make()
        unit.grant(3, 0, 1024, READ)
        with pytest.raises(ProtectionFault):
            unit.check(3, 512, 1024, READ)      # spills into page 1

    def test_vme_domain_is_reserved_and_distinct(self):
        unit = self.make()
        assert unit.vme_domain == 31
        with pytest.raises(ProtectionFault):
            unit.check(unit.vme_domain, 0, 4, WRITE)
        unit.grant(unit.vme_domain, 0, 1024, WRITE)
        unit.check(unit.vme_domain, 0, 4, WRITE)

    def test_32_domains(self):
        unit = self.make()
        assert unit.num_domains == 32
        with pytest.raises(ProtectionFault):
            unit.check(32, 0, 1, READ)

    def test_out_of_range_extent(self):
        unit = self.make()
        with pytest.raises(ProtectionFault):
            unit.check(KERNEL_DOMAIN, 64 * 1024, 1, READ)
        with pytest.raises(ProtectionFault):
            unit.permissions(KERNEL_DOMAIN, 1 << 30)

    @pytest.mark.parametrize("perms", [0x100, ALL_ACCESS + 1, -1])
    def test_grant_rejects_bits_outside_all_access(self, perms):
        unit = self.make()
        with pytest.raises(ProtectionFault):
            unit.grant(3, 0, 1024, perms)
        with pytest.raises(ProtectionFault):
            unit.check(3, 0, 1, READ)           # nothing was stored

    def test_untouched_domains_hold_no_table(self):
        unit = self.make()
        assert unit._tables == {}
        unit.check(KERNEL_DOMAIN, 0, 64 * 1024, ALL_ACCESS)
        with pytest.raises(ProtectionFault):
            unit.check(3, 0, 1, READ)
        assert unit.permissions(3, 0) == 0
        assert unit._tables == {}, "reading must not build a table"
        unit.grant(3, 0, 1024, READ)
        assert set(unit._tables) == {3}
        assert len(unit._tables[3]) == unit.num_pages    # one byte a page

    def test_domains_never_alias_one_table(self):
        unit = self.make()
        unit.grant(3, 0, 64 * 1024, ALL_ACCESS)
        for other in (4, unit.vme_domain):
            assert unit.permissions(other, 0) == 0
            with pytest.raises(ProtectionFault):
                unit.check(other, 0, 1, READ)
        unit.grant(4, 0, 1024, READ)
        unit.revoke(3, 0, 1024)
        assert unit.permissions(4, 0) == READ
        assert unit._tables[3] is not unit._tables[4]

    def test_grant_and_revoke_straddle_a_page_boundary(self):
        unit = self.make()
        unit.grant(3, 1000, 100, READ | WRITE)  # bytes 1000..1099: pages 0, 1
        assert [unit.permissions(3, page * 1024) for page in range(3)] \
            == [READ | WRITE, READ | WRITE, 0]
        unit.revoke(3, 1023, 2)                 # one byte either side
        assert [unit.permissions(3, page * 1024) for page in range(3)] \
            == [0, 0, 0]

    def test_kernel_domain_all_access_on_last_page(self):
        unit = self.make()
        last = 64 * 1024 - 1
        unit.check(KERNEL_DOMAIN, last, 1, ALL_ACCESS)
        assert unit.permissions(KERNEL_DOMAIN, last) == ALL_ACCESS
        # Narrowing one kernel page leaves every other page wide open.
        unit.grant(KERNEL_DOMAIN, 0, 1024, READ)
        assert unit.permissions(KERNEL_DOMAIN, 0) == READ
        unit.check(KERNEL_DOMAIN, last, 1, ALL_ACCESS)
