"""Shared virtual memory over Nectar (§7).

"The high bandwidth and low latency provided by Nectar also make it an
attractive architecture for communication-intensive distributed
applications.  Examples ... include the simulation of shared virtual
memory over a distributed system using Mach [9].  In these applications,
the CAB will play a critical role as an operating system co-processor."

Implementation: page-granularity DSM with the classic fixed-distributed-
manager, single-writer/multiple-reader invalidation protocol (Li & Hudak
style).  Page p is managed by CAB ``p mod N``; the manager tracks the
owner and copyset.  Reads fault to the owner for a copy; writes fault to
the manager, which invalidates every copy and transfers ownership.  All
protocol traffic is Nectar request-response RPC between CAB-resident
server tasks — the "OS co-processor" role.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from ..errors import NectarError
from ..nectarine.api import NectarineRuntime, Task
from ..stats.recorders import LatencyRecorder

if TYPE_CHECKING:  # pragma: no cover
    from ..system.builder import CabStack, NectarSystem

_REQ = struct.Struct("<BIH")   # op, page, requester index
_OP_READ = 1
_OP_WRITE = 2
_OP_FETCH = 3
_OP_INVALIDATE = 4

#: CPU cost of a page-table operation on the CAB (µs-scale).
PAGE_TABLE_CPU_NS = 2_000
#: DSM page size: a fetch ships one page body (1 KB on the wire).
PAGE_BYTES = 1024


class _PageState:
    """Manager-side record for one page."""

    __slots__ = ("owner", "copyset", "version")

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self.copyset: set[int] = {owner}
        self.version = 0


class DsmNode:
    """One participant: local page cache plus a protocol server task."""

    def __init__(self, dsm: "SharedVirtualMemory", index: int,
                 stack: "CabStack") -> None:
        self.dsm = dsm
        self.index = index
        self.stack = stack
        #: page -> ("read" | "write", version)
        self.cache: dict[int, tuple[str, int]] = {}
        self.read_hits = 0
        self.read_faults = 0
        self.write_hits = 0
        self.write_faults = 0
        self.invalidations_received = 0
        # Two tasks per node: the *manager* serves read/write faults and
        # issues nested fetch/invalidate RPCs; the *leaf* serves those
        # nested requests and never blocks on anyone — so the RPC wait
        # graph is bipartite and deadlock-free.
        self.server = dsm.runtime.create_task(f"dsm{index}", stack)
        self.leaf = dsm.runtime.create_task(f"dsm{index}-leaf", stack)
        self.server.start(self._serve_faults)
        self.leaf.start(self._serve_leaf)

    # ------------------------------------------------------------------
    # application-facing API (generators, run in CAB threads)
    # ------------------------------------------------------------------

    def read(self, page: int):
        """Read ``page``; returns its version (coherence observable)."""
        self.dsm._check_page(page)
        kernel = self.stack.kernel
        yield from kernel.compute(PAGE_TABLE_CPU_NS)
        cached = self.cache.get(page)
        if cached is not None:
            self.read_hits += 1
            return cached[1]
        self.read_faults += 1
        started = self.dsm.system.sim.now
        manager = self.dsm._manager_of(page)
        response = yield from self.server.request(
            manager.server, _REQ.pack(_OP_READ, page, self.index))
        version = int.from_bytes(response.data[:8], "little")
        self.cache[page] = ("read", version)
        self.dsm.read_fault_latency.add(self.dsm.system.sim.now - started)
        return version

    def write(self, page: int):
        """Write ``page``; returns the new version."""
        self.dsm._check_page(page)
        kernel = self.stack.kernel
        yield from kernel.compute(PAGE_TABLE_CPU_NS)
        cached = self.cache.get(page)
        if cached is not None and cached[0] == "write":
            self.write_hits += 1
            new_version = cached[1] + 1
            self.cache[page] = ("write", new_version)
            return new_version
        self.write_faults += 1
        started = self.dsm.system.sim.now
        manager = self.dsm._manager_of(page)
        response = yield from self.server.request(
            manager.server, _REQ.pack(_OP_WRITE, page, self.index))
        version = int.from_bytes(response.data[:8], "little") + 1
        self.cache[page] = ("write", version)
        self.dsm.write_fault_latency.add(self.dsm.system.sim.now - started)
        return version

    # ------------------------------------------------------------------
    # protocol server (one task per node)
    # ------------------------------------------------------------------

    def _serve_faults(self, task: Task):
        while True:
            message = yield from task.receive()
            op, page, requester = _REQ.unpack(message.data)
            yield from self._serve_manager(task, message, op, page,
                                           requester)

    def _serve_leaf(self, task: Task):
        while True:
            message = yield from task.receive()
            op, page, _requester = _REQ.unpack(message.data)
            if op == _OP_FETCH:
                yield from self._serve_fetch(task, message, page)
            elif op == _OP_INVALIDATE:
                yield from self._serve_invalidate(task, message, page)

    def _serve_manager(self, task: Task, message, op: int, page: int,
                       requester: int):
        """Manager role: track ownership, orchestrate the fault."""
        dsm = self.dsm
        state = dsm._pages[page]
        yield from self.stack.kernel.compute(PAGE_TABLE_CPU_NS)
        owner = dsm.nodes[state.owner]
        if op == _OP_READ:
            # Pull a copy from the owner (page body crosses the net).
            if state.owner != requester:
                fetch = yield from task.request(
                    owner.leaf, _REQ.pack(_OP_FETCH, page, requester))
                version = int.from_bytes(fetch.data[:8], "little")
            else:
                version = state.version
            state.copyset.add(requester)
            state.version = max(state.version, version)
            yield from task.respond(
                message, state.version.to_bytes(8, "little"))
            return
        # WRITE: fetch the current contents from the owner *first* (its
        # copy is the truth and is about to be invalidated), then
        # invalidate every other copy, then hand ownership over.
        if state.owner != requester:
            fetch = yield from task.request(
                owner.leaf, _REQ.pack(_OP_FETCH, page, requester))
            state.version = int.from_bytes(fetch.data[:8], "little")
        for holder in sorted(state.copyset - {requester}):
            yield from task.request(
                dsm.nodes[holder].leaf,
                _REQ.pack(_OP_INVALIDATE, page, requester))
            dsm.invalidations += 1
        state.owner = requester
        state.copyset = {requester}
        state.version += 1
        yield from task.respond(
            message, (state.version - 1).to_bytes(8, "little"))

    def _serve_fetch(self, task: Task, message, page: int):
        """Owner role: ship the page body (1 KB on the wire)."""
        cached = self.cache.get(page, ("read", 0))
        version = cached[1]
        body = version.to_bytes(8, "little")
        body += bytes(PAGE_BYTES - len(body))
        yield from task.respond(message, body)

    def _serve_invalidate(self, task: Task, message, page: int):
        self.cache.pop(page, None)
        self.invalidations_received += 1
        yield from task.respond(message, b"\x01")


class SharedVirtualMemory:
    """A DSM instance spanning several CABs."""

    def __init__(self, system: "NectarSystem", stacks: list["CabStack"],
                 num_pages: int = 64) -> None:
        if len(stacks) < 2:
            raise NectarError("DSM needs at least two nodes")
        self.system = system
        self.runtime = NectarineRuntime(system)
        self.num_pages = num_pages
        self.invalidations = 0
        self.read_fault_latency = LatencyRecorder("read-fault")
        self.write_fault_latency = LatencyRecorder("write-fault")
        self.nodes: list[DsmNode] = []
        for index, stack in enumerate(stacks):
            self.nodes.append(DsmNode(self, index, stack))
        self._pages = {page: _PageState(owner=page % len(stacks))
                       for page in range(num_pages)}
        for page, state in self._pages.items():
            # Initial owner starts with a writable zero version.
            self.nodes[state.owner].cache[page] = ("write", 0)

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.num_pages:
            raise NectarError(f"page {page} outside 0..{self.num_pages - 1}")

    def _manager_of(self, page: int) -> DsmNode:
        return self.nodes[page % len(self.nodes)]

    def node(self, index: int) -> DsmNode:
        return self.nodes[index]

    @property
    def total_faults(self) -> int:
        return sum(n.read_faults + n.write_faults for n in self.nodes)
