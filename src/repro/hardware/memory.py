"""CAB memory: regions, bandwidth accounting, allocation, protection (§5.2).

The prototype CAB's data memory sustains 66 MB/s across concurrent CPU,
fiber-DMA and VME-DMA streams.  :class:`BandwidthPool` models that shared
capacity: streams run at their nominal device rate unless the sum of
nominal demands exceeds the pool, in which case every stream is scaled
proportionally (a fair-share approximation of bus arbitration; exact
per-cycle interleaving is below the fidelity this model needs).

Protection follows §5.2: every 1 KB page of the CAB address space can be
assigned any subset of read/write/execute permissions, per protection
domain, with 32 domains and a dedicated domain for VME accesses.  Checks
are performed "in parallel with the operation so that no latency is added"
— hence :meth:`ProtectionUnit.check` costs no simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from ..config import PAGE_BYTES, PROTECTION_DOMAINS
from ..errors import AllocationError, ProtectionFault
from ..sim import Simulator, units

READ = 0x1
WRITE = 0x2
EXECUTE = 0x4
ALL_ACCESS = READ | WRITE | EXECUTE

#: Domain 0 is the CAB kernel; the highest domain is reserved for VME.
KERNEL_DOMAIN = 0


class BandwidthPool:
    """Shared memory bandwidth (bytes/ns) divided among active streams."""

    def __init__(self, sim: Simulator, capacity_bytes_per_ns: float,
                 name: str = "memory") -> None:
        if capacity_bytes_per_ns <= 0:
            raise ValueError("pool capacity must be positive")
        self.sim = sim
        self.name = name
        self.capacity = capacity_bytes_per_ns
        self._active: dict[int, float] = {}
        self._stream_ids = count(1)
        self.bytes_moved = 0

    @property
    def demand(self) -> float:
        return sum(self._active.values())

    def open_stream(self, nominal_rate: float) -> int:
        """Register a long-lived stream; returns a handle for closing."""
        handle = next(self._stream_ids)
        self._active[handle] = nominal_rate
        return handle

    def close_stream(self, handle: int) -> None:
        self._active.pop(handle, None)

    def effective_rate(self, nominal_rate: float) -> float:
        """Rate a new stream of ``nominal_rate`` achieves given current
        load."""
        demand = self.demand + nominal_rate
        if demand <= self.capacity:
            return nominal_rate
        return nominal_rate * (self.capacity / demand)

    def transfer(self, num_bytes: int, nominal_rate: float):
        """Timed transfer of ``num_bytes`` (generator for processes).

        The rate is fixed at transfer start — a deliberate approximation
        (see module docstring).
        """
        if num_bytes <= 0:
            return
        rate = self.effective_rate(nominal_rate)
        handle = self.open_stream(nominal_rate)
        try:
            yield units.transfer_time(num_bytes, rate)
            self.bytes_moved += num_bytes
        finally:
            self.close_stream(handle)


@dataclass
class MemoryBlock:
    """An allocated extent inside a region."""

    region: "MemoryRegion"
    offset: int
    size: int
    freed: bool = False

    @property
    def end(self) -> int:
        return self.offset + self.size


class MemoryRegion:
    """A contiguous memory region with a first-fit allocator.

    The CAB splits its on-board memory into a program region and a data
    region; DMA is supported for data memory only (§5.2).
    """

    def __init__(self, sim: Simulator, name: str, size: int,
                 pool: BandwidthPool, dma_capable: bool = True) -> None:
        if size <= 0:
            raise ValueError(f"region size must be positive, got {size}")
        self.sim = sim
        self.name = name
        self.size = size
        self.pool = pool
        self.dma_capable = dma_capable
        #: Sorted list of free extents as (offset, size).
        self._free: list[tuple[int, int]] = [(0, size)]
        self.allocated_bytes = 0
        self.peak_allocated = 0
        #: One-shot callbacks invoked when memory is returned (used by
        #: mailboxes waiting for buffer space).
        self._free_listeners: list = []

    def alloc(self, size: int) -> MemoryBlock:
        """First-fit allocation; raises :class:`AllocationError` if full."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive: {size}")
        for index, (offset, extent) in enumerate(self._free):
            if extent >= size:
                if extent == size:
                    del self._free[index]
                else:
                    self._free[index] = (offset + size, extent - size)
                self.allocated_bytes += size
                self.peak_allocated = max(self.peak_allocated,
                                          self.allocated_bytes)
                return MemoryBlock(self, offset, size)
        raise AllocationError(
            f"{self.name}: cannot allocate {size} B "
            f"({self.size - self.allocated_bytes} B free, fragmented)")

    def free(self, block: MemoryBlock) -> None:
        """Return a block; coalesces adjacent free extents."""
        if block.region is not self:
            raise AllocationError("block belongs to a different region")
        if block.freed:
            raise AllocationError("double free")
        block.freed = True
        self.allocated_bytes -= block.size
        self._free.append((block.offset, block.size))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for offset, size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == offset:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((offset, size))
        self._free = merged
        listeners, self._free_listeners = self._free_listeners, []
        for listener in listeners:
            listener()

    def notify_on_free(self, callback) -> None:
        """Invoke ``callback()`` once, the next time memory is freed."""
        self._free_listeners.append(callback)

    @property
    def free_bytes(self) -> int:
        return self.size - self.allocated_bytes


def _initial_perms(domain: int) -> int:
    """What every page of ``domain`` holds before its first grant."""
    return ALL_ACCESS if domain == KERNEL_DOMAIN else 0


class ProtectionUnit:
    """Per-page, per-domain memory protection (§5.2).

    One permission byte per page (``ALL_ACCESS`` is 0x7), and a domain's
    table exists only once that domain has been granted something: a
    domain with no table denies everything, except the kernel domain,
    which allows everything.  Of the 32 domains a run touches a handful
    at most, so a CAB carries a few KB of tables, not 32 full ones.
    """

    def __init__(self, address_space: int) -> None:
        self.num_domains = PROTECTION_DOMAINS
        self.num_pages = (address_space + PAGE_BYTES - 1) // PAGE_BYTES
        #: tables[domain][page] -> permission bits, for granted domains.
        self._tables: dict[int, bytearray] = {}
        self.faults = 0

    @property
    def vme_domain(self) -> int:
        """Accesses from over the VME bus use a dedicated domain (§5.2)."""
        return self.num_domains - 1

    def _check_domain(self, domain: int) -> None:
        if not 0 <= domain < self.num_domains:
            raise ProtectionFault(f"no such protection domain {domain}")

    def _page_perms(self, domain: int, page: int) -> int:
        table = self._tables.get(domain)
        return _initial_perms(domain) if table is None else table[page]

    def grant(self, domain: int, offset: int, size: int, perms: int) -> None:
        """Set permission bits for the pages covering [offset, offset+size)."""
        self._check_domain(domain)
        if not 0 <= perms <= ALL_ACCESS:
            raise ProtectionFault(
                f"permission bits {perms:#x} outside 0..{ALL_ACCESS:#x}")
        pages = self._pages(offset, size)
        table = self._tables.get(domain)
        if table is None:
            # A fresh bytearray per domain: tables are mutable and must
            # never be shared between domains.
            table = self._tables[domain] = bytearray(
                [_initial_perms(domain)]) * self.num_pages
        table[pages.start:pages.stop] = bytes([perms]) * len(pages)

    def revoke(self, domain: int, offset: int, size: int) -> None:
        self.grant(domain, offset, size, 0)

    def permissions(self, domain: int, offset: int) -> int:
        self._check_domain(domain)
        page = offset // PAGE_BYTES
        if not 0 <= page < self.num_pages:
            raise ProtectionFault(f"address {offset:#x} outside memory")
        return self._page_perms(domain, page)

    def check(self, domain: int, offset: int, size: int, access: int) -> None:
        """Raise :class:`ProtectionFault` unless every page allows
        ``access``.  Costs no simulated time (checked in parallel, §5.2)."""
        self._check_domain(domain)
        for page in self._pages(offset, size):
            perms = self._page_perms(domain, page)
            if perms & access != access:
                self.faults += 1
                raise ProtectionFault(
                    f"domain {domain} denied access {access:#x} to page "
                    f"{page} (perms {perms:#x})")

    def _pages(self, offset: int, size: int) -> range:
        if offset < 0 or size < 0:
            raise ProtectionFault(f"bad extent {offset:#x}+{size}")
        first = offset // PAGE_BYTES
        last = (offset + max(size, 1) - 1) // PAGE_BYTES
        if last >= self.num_pages:
            raise ProtectionFault(
                f"extent {offset:#x}+{size} outside memory")
        return range(first, last + 1)
