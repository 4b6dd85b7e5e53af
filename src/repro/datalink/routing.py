"""Route planning over arbitrary HUB topologies (§3.1, §4.2).

"The HUB clusters may be connected in any topology appropriate to the
application environment."  The router holds the wiring graph (HUB-HUB
links and CAB attachment points), computes shortest hop paths with BFS,
and merges unicast routes into multicast trees whose DFS linearisation
yields exactly the command sequences of §4.2.2/§4.2.4.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from ..errors import RouteError, TopologyError

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.hub import Hub


@dataclass(frozen=True)
class Hop:
    """One switching step: at ``hub``, open ``out_port``."""

    hub: "Hub"
    out_port: int


@dataclass(frozen=True)
class Route:
    """A unicast route: the sequence of (hub, output port) hops."""

    src: str
    dst: str
    hops: tuple[Hop, ...]

    @property
    def hub_count(self) -> int:
        return len(self.hops)

    def __str__(self) -> str:
        steps = " -> ".join(f"{hop.hub.name}.p{hop.out_port}"
                            for hop in self.hops)
        return f"{self.src} -> [{steps}] -> {self.dst}"


@dataclass
class TreeEdge:
    """A multicast-tree edge in DFS order.

    ``is_leaf`` marks edges whose output port feeds a destination CAB;
    those get the ``*_reply`` open variant in circuit mode (§4.2.2).
    """

    hub: "Hub"
    out_port: int
    is_leaf: bool
    dst: Optional[str] = None


class _TreeNode:
    __slots__ = ("hub", "leaf_edges", "child_edges", "children")

    def __init__(self, hub: "Hub") -> None:
        self.hub = hub
        self.leaf_edges: list[tuple[int, str]] = []
        self.child_edges: list[int] = []
        self.children: dict[int, "_TreeNode"] = {}


class HubName:
    """A hub known by its name alone.

    The router, the datalink command builder and the reply-path codec
    read only ``.name`` from a hub they do not switch packets through,
    so this is all a scale-out partition holds of a remote hub.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HubName {self.name}>"


class Router:
    """Static routing tables for one Nectar installation."""

    @classmethod
    def of_names(cls, hubs: Iterable[str],
                 links: Iterable[tuple[str, int, str, int]]) -> "Router":
        """A router over a wiring graph given by names, every hub a
        :class:`HubName`: enough for :meth:`hub_path`."""
        router = cls()
        named = {name: HubName(name) for name in hubs}
        for hub in named.values():
            router.add_hub(hub)
        for hub_a, port_a, hub_b, port_b in links:
            router.add_link(named[hub_a], port_a, named[hub_b], port_b)
        return router

    def __init__(self) -> None:
        self._hubs: dict[str, "Hub"] = {}
        #: hub name -> {neighbour hub name: [(local port, remote port)]}.
        #: Multiple entries per neighbour are parallel links — "there is
        #: no a priori restriction on how many links can be used for
        #: inter-HUB connections" (§3.1); unicast routes spread over
        #: them deterministically by flow.
        self._links: dict[str, dict[str, list[tuple[int, int]]]] = {}
        #: cab name -> (hub, port index on that hub)
        self._cabs: dict[str, tuple["Hub", int]] = {}
        #: (src, dst) -> Route memo (routes are static once built).
        self._route_cache: dict[tuple[str, str], Route] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_hub(self, hub: "Hub") -> None:
        if hub.name in self._hubs:
            raise TopologyError(f"duplicate hub {hub.name}")
        self._hubs[hub.name] = hub
        self._links[hub.name] = {}

    def add_link(self, hub_a: "Hub", port_a: int,
                 hub_b: "Hub", port_b: int) -> None:
        for hub in (hub_a, hub_b):
            if hub.name not in self._hubs:
                raise TopologyError(f"unknown hub {hub.name}")
        # Parallel-link lists stay sorted by port number so a link that
        # goes down and comes back (mark_link_down / mark_link_up) lands
        # in its original position — the flow-hash assignment, and hence
        # every route, is restored exactly.
        self._insert_sorted(hub_a.name, hub_b.name, port_a, port_b)
        self._insert_sorted(hub_b.name, hub_a.name, port_b, port_a)
        self._route_cache.clear()

    def _insert_sorted(self, here: str, there: str,
                       local: int, remote: int) -> None:
        links = self._links[here].setdefault(there, [])
        links.append((local, remote))
        links.sort()

    def add_cab(self, cab_name: str, hub: "Hub", port: int) -> None:
        if cab_name in self._cabs:
            raise TopologyError(f"duplicate CAB {cab_name}")
        if hub.name not in self._hubs:
            raise TopologyError(f"unknown hub {hub.name}")
        self._cabs[cab_name] = (hub, port)
        self._route_cache.clear()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def cab_location(self, cab_name: str) -> tuple["Hub", int]:
        try:
            return self._cabs[cab_name]
        except KeyError:
            raise RouteError(f"unknown CAB {cab_name!r}") from None

    def hub_path(self, src_hub: str, dst_hub: str) -> list[str]:
        """Shortest hub sequence from ``src_hub`` to ``dst_hub`` (BFS)."""
        if src_hub not in self._hubs or dst_hub not in self._hubs:
            raise RouteError(f"unknown hub in {src_hub!r} -> {dst_hub!r}")
        if src_hub == dst_hub:
            return [src_hub]
        parents: dict[str, str] = {src_hub: src_hub}
        frontier = deque([src_hub])
        while frontier:
            current = frontier.popleft()
            for neighbour in sorted(self._links[current]):
                if neighbour in parents:
                    continue
                parents[neighbour] = current
                if neighbour == dst_hub:
                    path = [neighbour]
                    while path[-1] != src_hub:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                frontier.append(neighbour)
        raise RouteError(f"no path between hubs {src_hub} and {dst_hub}")

    @staticmethod
    def _flow_index(src_cab: str, dst_cab: str) -> int:
        # A cryptographic mix: multiplicative/XOR hashes have a linear
        # low bit, which made flows whose names differ in one repeated
        # digit all land on the same parallel link.
        digest = hashlib.blake2s(f"{src_cab}>{dst_cab}".encode(),
                                 digest_size=4).digest()
        return int.from_bytes(digest, "big")

    def _pick_link(self, here: str, there: str, flow: int) -> tuple[int, int]:
        """Choose among parallel links deterministically per flow, so
        distinct CAB pairs spread across the available fibers."""
        links = self._links[here][there]
        return links[flow % len(links)]

    def route(self, src_cab: str, dst_cab: str) -> Route:
        """The hop sequence a packet from ``src_cab`` must open."""
        cached = self._route_cache.get((src_cab, dst_cab))
        if cached is not None:
            return cached
        if src_cab == dst_cab:
            raise RouteError(f"route from {src_cab} to itself")
        src_hub, _src_port = self.cab_location(src_cab)
        dst_hub, dst_port = self.cab_location(dst_cab)
        path = self.hub_path(src_hub.name, dst_hub.name)
        flow = self._flow_index(src_cab, dst_cab)
        hops: list[Hop] = []
        for here, there in zip(path, path[1:]):
            local_port, _remote = self._pick_link(here, there, flow)
            hops.append(Hop(self._hubs[here], local_port))
        hops.append(Hop(dst_hub, dst_port))
        route = Route(src_cab, dst_cab, tuple(hops))
        self._route_cache[(src_cab, dst_cab)] = route
        return route

    # ------------------------------------------------------------------
    # multicast (§4.2.2, §4.2.4)
    # ------------------------------------------------------------------

    def multicast_edges(self, src_cab: str,
                        dst_cabs: Iterable[str]) -> list[TreeEdge]:
        """DFS-linearised multicast tree edges.

        Unicast routes to every destination are merged on common
        prefixes; at each hub, leaf edges (to CABs) come before subtree
        edges, matching the command order of the paper's Figure 7
        example.
        """
        destinations = list(dst_cabs)
        if not destinations:
            raise RouteError("multicast needs at least one destination")
        if len(set(destinations)) != len(destinations):
            raise RouteError(f"duplicate multicast destinations: "
                             f"{destinations}")
        src_hub, _ = self.cab_location(src_cab)
        root = _TreeNode(src_hub)
        for dst in destinations:
            if dst == src_cab:
                raise RouteError(f"multicast from {src_cab} to itself")
            route = self.route(src_cab, dst)
            node = root
            for hop in route.hops[:-1]:
                assert hop.hub is node.hub
                if hop.out_port not in node.children:
                    node.children[hop.out_port] = _TreeNode(
                        self._next_hub(node.hub, hop.out_port))
                    node.child_edges.append(hop.out_port)
                node = node.children[hop.out_port]
            last = route.hops[-1]
            assert last.hub is node.hub
            node.leaf_edges.append((last.out_port, dst))
        edges: list[TreeEdge] = []
        self._linearize(root, edges)
        return edges

    def _next_hub(self, hub: "Hub", out_port: int) -> "Hub":
        for neighbour, links in self._links[hub.name].items():
            for local, _remote in links:
                if local == out_port:
                    return self._hubs[neighbour]
        raise RouteError(f"{hub.name}.p{out_port} is not an inter-hub link")

    def _linearize(self, node: _TreeNode, edges: list[TreeEdge]) -> None:
        for port, dst in node.leaf_edges:
            edges.append(TreeEdge(node.hub, port, is_leaf=True, dst=dst))
        for port in node.child_edges:
            edges.append(TreeEdge(node.hub, port, is_leaf=False))
            self._linearize(node.children[port], edges)

    # ------------------------------------------------------------------

    @property
    def cab_names(self) -> list[str]:
        return sorted(self._cabs)

    @property
    def hub_names(self) -> list[str]:
        return sorted(self._hubs)

    def neighbours(self, hub_name: str) -> dict[str, tuple[int, int]]:
        """First link per neighbour (legacy view; see parallel_links)."""
        return {name: links[0]
                for name, links in self._links.get(hub_name, {}).items()}

    def parallel_links(self, hub_a: str, hub_b: str) -> list[tuple[int, int]]:
        """All fiber pairs between two hubs, as (port on a, port on b)."""
        return list(self._links.get(hub_a, {}).get(hub_b, []))

    # ------------------------------------------------------------------
    # reconfiguration (§4 goal 4: "testing, reconfiguration, and
    # recovery from hardware failures")
    # ------------------------------------------------------------------

    def mark_link_down(self, hub_a: str, hub_b: str,
                       port_a: Optional[int] = None) -> int:
        """Remove a failed inter-HUB link from the routing tables.

        With ``port_a`` given only that parallel link is removed;
        otherwise every link between the two hubs goes.  Existing routes
        are recomputed lazily (the route cache is flushed).  Returns how
        many links were removed.
        """
        forward = self._links.get(hub_a, {}).get(hub_b, [])
        backward = self._links.get(hub_b, {}).get(hub_a, [])
        removed = 0
        if port_a is None:
            removed = len(forward)
            forward.clear()
            backward.clear()
        else:
            for local, remote in list(forward):
                if local == port_a:
                    forward.remove((local, remote))
                    if (remote, local) in backward:
                        backward.remove((remote, local))
                    removed += 1
        if not forward:
            self._links[hub_a].pop(hub_b, None)
            self._links[hub_b].pop(hub_a, None)
        self._route_cache.clear()
        return removed

    def mark_link_up(self, hub_a: str, hub_b: str,
                     port_a: int, port_b: int) -> bool:
        """Reinstate one inter-HUB link after recovery.

        The inverse of :meth:`mark_link_down`: re-adds the ``(port_a,
        port_b)`` parallel link between the two hubs and flushes the
        route cache so flap recovery restores the original topology
        (and, because link lists are kept sorted, the original routes).
        Returns False when the link is already present (idempotent —
        probe and revert timing can race).
        """
        for name in (hub_a, hub_b):
            if name not in self._hubs:
                raise RouteError(f"unknown hub {name!r}")
        forward = self._links[hub_a].get(hub_b, [])
        if (port_a, port_b) in forward:
            return False
        self._insert_sorted(hub_a, hub_b, port_a, port_b)
        self._insert_sorted(hub_b, hub_a, port_b, port_a)
        self._route_cache.clear()
        return True
