"""One shard of a partitioned NectarSystem (the worker-side runtime).

A :class:`Partitioning` cuts a :class:`~repro.topology.fabrics.FabricSpec`
on inter-HUB fiber boundaries: each partition owns a slice of the
fabric's hubs (a contiguous run in construction order, or a torus slab,
whichever carries the least work: :func:`partition_fabric`), every CAB
lives with its hub, and the links whose endpoints land in different
partitions become *cut links*.  :class:`PartitionSystem` is a
:class:`~repro.system.NectarSystem` that replays the whole spec but
builds only one partition's hardware:

* Local hubs, their CAB stacks, and local-local fibers are built by
  ``NectarSystem``'s own construction methods, with the same names,
  ports, and per-link RNG streams as the single-process system, so
  their event sequences are identical.
* Remote hubs exist only as names
  (:class:`~repro.datalink.routing.HubName`) registered with the
  partition's router.  Routing — BFS,
  parallel-link flow hashing, route caching — operates purely on names
  and the full link list, so every partition computes the *same* routes
  the single-process router would, while only materializing tables for
  the CAB pairs its local senders actually use (no global BFS).
* Each cut link's transmit side is a :class:`_BoundaryFiber`: the normal
  :class:`~repro.hardware.fiber.Fiber` serialisation model, but its
  delivery commitment is captured into an outbox envelope carrying the
  exact arrival timestamp instead of becoming a local event.  The
  ready-bit signal crosses the same way via :class:`_RemotePortStub`.

The workers (:mod:`repro.scaleout.worker`) exchange envelopes between
partitions and advance each one under conservative lookahead;
:func:`lookahead_ns` derives that lookahead from the fiber config, and
:func:`lookahead_matrix` charges it only on the cut links a declared
route (:func:`route_set`) crosses (see ``docs/SCALEOUT.md`` for the
proof sketch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Sequence

from ..config import NectarConfig
from ..datalink.routing import HubName, Router
from ..errors import ScaleoutError, TopologyError
from ..hardware.fiber import Fiber
from ..hardware.hub import Hub
from ..sim import Simulator
from ..system.builder import CabStack, NectarSystem
from ..topology.fabrics import FabricSpec, replay
from .wire import KIND_READY, decode_item, encode_item, kind_of

__all__ = ["Envelope", "Partitioning", "PartitionSystem", "flow_paths",
           "lookahead_matrix", "lookahead_ns", "partition_fabric",
           "route_set"]


#: One cross-partition delivery: ``(arrival, seq, kind, dst_hub,
#: dst_port, blob, wire_size)``.  ``blob`` is the captured frame as
#: :func:`~repro.scaleout.wire.encode_item` bytes (``None`` for a ready
#: signal); ``seq`` is the sender-side capture order; the pending heaps
#: order merged batches by ``(arrival, src_partition, seq)`` so
#: injection order is deterministic.
Envelope = tuple


def lookahead_ns(cfg: NectarConfig) -> int:
    """The conservative lookahead for ``cfg``, in simulated ns.

    Every cross-partition interaction crosses an inter-HUB fiber, and the
    earliest-arriving one is the ready-bit signal, which lands after
    exactly ``propagation_ns`` (packet heads add one byte time on top;
    replies add a full serialisation).  A message committed at time ``t``
    therefore arrives no earlier than ``t + propagation_ns``, which is
    what lets every partition advance through a window of that width
    without waiting on its neighbours.
    """
    lookahead = cfg.fiber.propagation_ns
    if lookahead < 1:
        raise TopologyError(
            "scale-out needs fiber propagation_ns >= 1 for lookahead")
    return lookahead


def route_set(paths: Iterable[Sequence[str]]) -> frozenset[tuple[str, str]]:
    """Every hub-to-hub hop of ``paths`` (see :func:`flow_paths`), in
    both directions: ready bits and circuit replies travel a route
    backwards, hop by hop."""
    hops: set[tuple[str, str]] = set()
    for path in paths:
        for near, far in zip(path, path[1:]):
            hops.add((near, far))
            hops.add((far, near))
    return frozenset(hops)


def lookahead_matrix(partitioning: "Partitioning", cfg: NectarConfig,
                     routes: Optional[frozenset[tuple[str, str]]] = None
                     ) -> list[list[Optional[int]]]:
    """Per-ordered-pair lookahead: ``matrix[src][dst]`` simulated ns, or
    ``None`` where nothing ``src`` commits can ever reach ``dst``.

    A direct edge ``src -> dst`` exists where a cut link carries
    traffic from ``src`` into ``dst`` (:meth:`Partitioning.crossed`:
    with a route set, only the links its hops use) and costs the fiber
    lookahead (:func:`lookahead_ns`; every fiber in a config shares
    ``propagation_ns``).  Pairs with no direct edge are bounded through
    the partition graph's shortest path: a signal from ``src`` must
    transit intermediate partitions, paying each cut's lookahead along
    the way, so well-separated slices see a *wider* horizon than the
    global minimum and the planner can grant them correspondingly
    larger windows.  A pair no path joins has no entry at all: it puts
    no bound on the other.

    The diagonal carries the shortest *feedback cycle*
    ``min over j != i of (matrix[i][j] + matrix[j][i])``: the earliest a
    signal committed in partition ``i`` can cause an effect back in
    ``i`` via some other partition (``None`` when no cycle passes
    through ``i``).  The planner's grants need this term — inside a
    grant several lookahead widths long, a neighbour can *react* to
    ``i``'s own sends, so ``i``'s horizon is bounded by its own trigger
    time plus the round trip, not just by the other partitions'
    triggers.
    """
    count = partitioning.num_partitions
    base = lookahead_ns(cfg)
    dist: list[list[Optional[int]]] = [[None] * count for _ in range(count)]
    for src, dst in partitioning.crossed(routes):
        dist[src][dst] = base
    # The diagonal stays empty until the closure is done, so no path
    # runs through it.
    for via in range(count):
        row_via = dist[via]
        for src in range(count):
            through = dist[src][via]
            if through is None:
                continue
            row_src = dist[src]
            for dst in range(count):
                hop = row_via[dst]
                if hop is None or dst == src:
                    continue
                if row_src[dst] is None or through + hop < row_src[dst]:
                    row_src[dst] = through + hop
    for index in range(count):
        # Any closed walk leaves through some partition ``via`` and
        # comes back, so the shortest-path sum is both a lower bound
        # and achievable.
        dist[index][index] = min(
            (dist[index][via] + dist[via][index] for via in range(count)
             if via != index and dist[index][via] is not None
             and dist[via][index] is not None),
            default=None)
    return dist


@dataclass(frozen=True)
class Partitioning:
    """An assignment of every fabric hub to exactly one partition."""

    fabric: FabricSpec
    parts: tuple[tuple[str, ...], ...]

    @property
    def num_partitions(self) -> int:
        return len(self.parts)

    def owner_map(self) -> dict[str, int]:
        """Hub name -> owning partition index."""
        owners: dict[str, int] = {}
        for index, hubs in enumerate(self.parts):
            for hub in hubs:
                owners[hub] = index
        return owners

    def cut_links(self) -> tuple[tuple[str, int, str, int], ...]:
        """The fabric links whose endpoints live in different partitions."""
        owners = self.owner_map()
        return tuple(link for link in self.fabric.links
                     if owners[link[0]] != owners[link[2]])

    def crossed(self, routes: Optional[frozenset[tuple[str, str]]]
                ) -> set[tuple[int, int]]:
        """The directed partition pairs ``(src, dst)`` joined by a cut
        link that some hop of ``routes`` (:func:`route_set`) takes from
        ``src`` into ``dst``; with ``routes`` ``None``, every cut link's
        pairs, both ways."""
        owners = self.owner_map()
        pairs = set()
        for hub_a, _port_a, hub_b, _port_b in self.cut_links():
            for near, far in ((hub_a, hub_b), (hub_b, hub_a)):
                if routes is None or (near, far) in routes:
                    pairs.add((owners[near], owners[far]))
        return pairs

    def score(self, paths: Sequence[Sequence[str]]) -> tuple[int, int]:
        """``(largest partition load, flows crossing the cut)`` of the
        hub ``paths`` (see :func:`flow_paths`): a load counts the hub
        visits that land in its partition."""
        owners = self.owner_map()
        load = [0] * self.num_partitions
        crossing = 0
        for path in paths:
            owned = [owners[hub] for hub in path]
            for owner in owned:
                load[owner] += 1
            crossing += len(set(owned)) > 1
        return max(load), crossing

    def validate(self) -> None:
        """Raise :class:`TopologyError` unless this is a true partition."""
        owners = self.owner_map()
        if not self.parts or any(not part for part in self.parts):
            raise TopologyError("every partition needs at least one hub")
        if set(owners) != set(self.fabric.hubs) \
                or sum(len(p) for p in self.parts) != len(self.fabric.hubs):
            raise TopologyError(
                "partitions must cover every hub exactly once")


def flow_paths(fabric: FabricSpec,
               flows: Iterable[tuple[str, str]]) -> list[list[str]]:
    """The hub path of each ``(src_cab, dst_cab)`` flow, as the router
    finds it (BFS over sorted neighbours: the same path every partition
    and the single-process system route over)."""
    router = Router.of_names(fabric.hubs, fabric.links)
    where = {cab: hub for cab, hub, _port in fabric.cabs}
    return [router.hub_path(where[src], where[dst]) for src, dst in flows]


def _index_order(hubs: tuple[str, ...],
                 num_partitions: int) -> tuple[tuple[str, ...], ...]:
    """Contiguous slices in construction order, sizes within one hub."""
    base, extra = divmod(len(hubs), num_partitions)
    parts = []
    start = 0
    for index in range(num_partitions):
        size = base + (1 if index < extra else 0)
        parts.append(hubs[start:start + size])
        start += size
    return tuple(parts)


def _axis_slabs(fabric: FabricSpec, num_partitions: int
                ) -> Iterator[tuple[tuple[str, ...], ...]]:
    """Every cut of a torus into equal slabs along one axis: one per
    axis whose extent ``num_partitions`` divides."""
    dims = fabric.dims or ()
    stride = len(fabric.hubs)
    for extent in dims:
        stride //= extent
        if num_partitions == 1 or extent % num_partitions:
            continue
        width = extent // num_partitions
        parts: list[list[str]] = [[] for _ in range(num_partitions)]
        for flat, hub in enumerate(fabric.hubs):
            parts[flat // stride % extent // width].append(hub)
        yield tuple(tuple(part) for part in parts)


def partition_fabric(fabric: FabricSpec, num_partitions: int,
                     paths: Sequence[Sequence[str]] = ()
                     ) -> Partitioning:
    """Cut ``fabric`` into ``num_partitions`` hub slices that weigh work.

    Two kinds of candidate are scored: contiguous slices in
    construction order (which the regular-fabric builders lay out so
    that consecutive hubs are topologically close), and, on a torus,
    every slab along one axis whose extent ``num_partitions`` divides.
    Each candidate's score is its largest partition load, the hub
    visits on the flows' hub ``paths`` (:func:`flow_paths`) that land
    in one partition; ties go to fewer flows crossing the cut, then to
    candidate order.  Without paths, and on any fabric but a torus,
    that is construction order.
    """
    count = len(fabric.hubs)
    if not 1 <= num_partitions <= count:
        raise TopologyError(
            f"cannot cut {count} hubs into {num_partitions} partitions")
    candidates = [_index_order(fabric.hubs, num_partitions),
                  *_axis_slabs(fabric, num_partitions)]
    if len(candidates) > 1 and paths:
        candidates.sort(key=lambda parts: Partitioning(fabric, parts)
                        .score(paths))
    partitioning = Partitioning(fabric=fabric, parts=candidates[0])
    partitioning.validate()
    return partitioning


class _BoundaryFiber(Fiber):
    """The transmit side of a cut link: capture instead of deliver.

    Serialisation, cut-through timing, fault injection, and statistics
    are all inherited unchanged — the only difference is that the moment
    the base class would schedule the far-end delivery, the item is
    packed into an outbox envelope stamped with that same arrival time.
    """

    __slots__ = ("_outbox", "_dst_hub", "_dst_port")

    def __init__(self, *args: Any, outbox: "PartitionSystem",
                 dst_hub: str, dst_port: int, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._outbox = outbox
        self._dst_hub = dst_hub
        self._dst_port = dst_port

    def _schedule_delivery(self, latency: int, item: Any, size: int) -> None:
        self._outbox.capture(self.sim.now + latency, kind_of(item),
                             self._dst_hub, self._dst_port,
                             encode_item(item), size)


class _RemotePortStub:
    """Stands in as ``port.peer`` for the far end of a cut link.

    Carries the remote hub/port identity and captures the ready-bit
    signal (:meth:`schedule_notify_ready`, duck-typed by
    :meth:`~repro.hardware.hub_port.HubPort._signal_upstream_drained`)
    into the partition outbox.
    """

    __slots__ = ("_outbox", "hub_name", "port_index", "sim")

    def __init__(self, outbox: "PartitionSystem", sim: Simulator,
                 hub_name: str, port_index: int) -> None:
        self._outbox = outbox
        self.sim = sim
        self.hub_name = hub_name
        self.port_index = port_index

    def schedule_notify_ready(self, delay: int) -> None:
        self._outbox.capture(self.sim.now + delay, KIND_READY,
                             self.hub_name, self.port_index, None, 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<_RemotePortStub {self.hub_name}.p{self.port_index}>"


class PartitionSystem(NectarSystem):
    """One partition of a fabric: a :class:`~repro.system.NectarSystem`
    that builds only the hubs, links and CABs partition ``index`` owns,
    plus its cross-partition mailboxes.

    The fabric is replayed through :func:`~repro.topology.fabrics.replay`
    like a whole system's; the three construction methods below build a
    local name exactly as the whole system does and only register a
    remote one with the router.  Every worker arms the *same* fault
    campaign (:meth:`~repro.system.NectarSystem.inject_faults`); being
    :attr:`partial`, each applies only the events whose targets it holds.

    ``routes`` (:func:`route_set`, or ``None`` for every cut link) is
    the traffic the run declared: :func:`lookahead_matrix` gives an
    uncrossed pair of partitions no edge, so :meth:`capture` refuses
    any delivery into a partition the declared routes never enter.
    """

    partial = True

    def __init__(self, partitioning: Partitioning, index: int,
                 cfg: Optional[NectarConfig] = None,
                 routes: Optional[frozenset[tuple[str, str]]] = None
                 ) -> None:
        partitioning.validate()
        if not 0 <= index < partitioning.num_partitions:
            raise TopologyError(f"no partition {index} in {partitioning}")
        super().__init__(cfg)
        self.partitioning = partitioning
        self.index = index
        self.routes = routes
        self._local = frozenset(partitioning.parts[index])
        self._names: dict[str, HubName] = {}
        self._outbox: list[Envelope] = []
        self._seq = 0
        owners = partitioning.owner_map()
        crossed = {dst for src, dst in partitioning.crossed(routes)
                   if src == index}
        #: The remote hubs a capture may address.
        self._reachable = frozenset(hub for hub, owner in owners.items()
                                    if owner in crossed)
        replay(partitioning.fabric, self)

    # ------------------------------------------------------------------
    # construction: the router learns the whole fabric (names only), so
    # routes match the whole system's; hardware exists only where at
    # least one end is local.
    # ------------------------------------------------------------------

    def add_hub(self, name: Optional[str] = None) -> Hub | HubName:
        if name in self._local:
            return super().add_hub(name)
        hub = self._names[name] = HubName(name)
        self.router.add_hub(hub)
        return hub

    def connect_hubs(self, hub_a: Hub | HubName, hub_b: Hub | HubName,
                     port_a: Optional[int] = None,
                     port_b: Optional[int] = None) -> tuple[int, int]:
        a_local, b_local = hub_a.name in self._local, hub_b.name in self._local
        if a_local and b_local:
            return super().connect_hubs(hub_a, hub_b, port_a, port_b)
        self.router.add_link(hub_a, port_a, hub_b, port_b)
        if a_local:
            self._wire_boundary(hub_a, port_a, hub_b.name, port_b)
        elif b_local:
            self._wire_boundary(hub_b, port_b, hub_a.name, port_a)
        return port_a, port_b

    def add_cab(self, name: str, hub: Hub | HubName,
                port: Optional[int] = None) -> Optional[CabStack]:
        if hub.name in self._local:
            return super().add_cab(name, hub, port)
        self.router.add_cab(name, hub, port)
        return None

    def _wire_boundary(self, hub: Hub, local_port: int,
                       remote_hub: str, remote_port: int) -> None:
        """Give the local half of a cut link its capture-side plumbing."""
        port = hub.port(local_port)
        name = f"{hub.name}.p{local_port}->{remote_hub}.p{remote_port}"
        # Same fiber name as wire_hub_to_hub builds, hence the same
        # seed-derived fault RNG stream as the single-process run.
        port.out_fiber = _BoundaryFiber(
            self.sim, self.cfg.fiber, name,
            rng_factory=self.cfg.rng_stream,
            outbox=self, dst_hub=remote_hub, dst_port=remote_port)
        port.peer = _RemotePortStub(self, self.sim, remote_hub, remote_port)

    # ------------------------------------------------------------------
    # cross-partition mailboxes
    # ------------------------------------------------------------------

    def capture(self, arrival: int, kind: str, dst_hub: str, dst_port: int,
                blob: Optional[bytes], size: int) -> None:
        """Seal one outbound delivery into the current round's outbox."""
        if dst_hub not in self._reachable:
            raise ScaleoutError(
                f"route set violated: partition {self.index} sends to "
                f"{dst_hub}, in a partition no declared route enters")
        self._outbox.append((arrival, self._seq, kind, dst_hub, dst_port,
                             blob, size))
        self._seq += 1

    def drain_outbox(self) -> list[Envelope]:
        """Hand the round's captured envelopes to the peer exchange."""
        drained, self._outbox = self._outbox, []
        return drained

    def inject(self, envelopes: list[Envelope]) -> None:
        """Schedule deliveries received from other partitions.

        Arrivals are strictly in this partition's future: a message
        committed at ``t`` in some round arrives at ``t + lookahead`` at
        the earliest, past that round's window end (see
        :func:`lookahead_ns`), so ``call_at`` never lands in the past.
        """
        for arrival, _seq, kind, dst_hub, dst_port, blob, size in envelopes:
            port = self.hubs[dst_hub].port(dst_port)
            if kind == KIND_READY:
                self.sim.call_at(arrival, port.notify_ready)
            else:
                item = decode_item(blob, self._resolve)
                self.sim.call_at(
                    arrival,
                    lambda p=port, i=item, s=size: p.deliver(i, s))

    def _resolve(self, name: str) -> Hub | HubName:
        hub = self.hubs.get(name)
        return hub if hub is not None else self._names[name]
