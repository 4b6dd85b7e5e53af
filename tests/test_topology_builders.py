"""Large-fabric builders: specs, routing tables, and the partitioner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalink.routing import Router
from repro.errors import TopologyError
from repro.scaleout import ScaleoutScenario, flow_paths, partition_fabric
from repro.scaleout.partition import PartitionSystem, Partitioning
from repro.topology.fabrics import (FabricSpec, build_system,
                                    fat_tree_fabric, hypercube_fabric,
                                    torus_fabric)


def bfs_distance(adjacency, src, dst):
    """Reference shortest hop count, independent of the Router's BFS."""
    if src == dst:
        return 0
    frontier, seen, depth = {src}, {src}, 0
    while frontier:
        depth += 1
        frontier = {neighbour for hub in frontier
                    for neighbour in adjacency[hub]} - seen
        if dst in frontier:
            return depth
        seen |= frontier
    raise AssertionError(f"no path {src} -> {dst}")


def spec_router(spec):
    """A Router loaded with the spec's graph via name-only hub stubs."""
    class _Stub:
        def __init__(self, name):
            self.name = name

    router = Router()
    stubs = {name: _Stub(name) for name in spec.hubs}
    for name in spec.hubs:
        router.add_hub(stubs[name])
    for hub_a, port_a, hub_b, port_b in spec.links:
        router.add_link(stubs[hub_a], port_a, stubs[hub_b], port_b)
    for cab, hub, port in spec.cabs:
        router.add_cab(cab, stubs[hub], port)
    return router


# ----------------------------------------------------------------------
# spec shape invariants
# ----------------------------------------------------------------------

def test_torus_counts_and_degree():
    spec = torus_fabric((3, 3, 2))
    assert len(spec.hubs) == 18
    # 2 links per extent-3 dim, 1 per extent-2 dim, each shared by 2 hubs.
    assert len(spec.links) == 18 * (2 + 2 + 1) // 2
    adjacency = spec.adjacency()
    assert all(len(adjacency[hub]) == 5 for hub in spec.hubs)
    spec.validate()


def test_torus_extent2_has_no_duplicate_links():
    spec = torus_fabric((2, 2))
    assert len(spec.links) == 4  # a 2x2 ring, not 8 double-wired edges
    seen = {frozenset((a, b)) for a, _pa, b, _pb in spec.links}
    assert len(seen) == len(spec.links)


def test_torus_extent1_dimension_contributes_nothing():
    assert len(torus_fabric((4, 1)).links) == len(torus_fabric((4,)).links)


def test_hypercube_degree_equals_dimension():
    spec = hypercube_fabric(4)
    assert len(spec.hubs) == 16
    assert len(spec.links) == 16 * 4 // 2
    adjacency = spec.adjacency()
    assert all(len(adjacency[hub]) == 4 for hub in spec.hubs)


def test_fat_tree_shape():
    spec = fat_tree_fabric(4)
    # (k/2)^2 cores + k*(k/2) aggs + k*(k/2) edges; k^3/4 CABs.
    assert len(spec.hubs) == 4 + 8 + 8
    assert len(spec.cabs) == 16
    adjacency = spec.adjacency()
    for hub in spec.hubs:
        if hub.startswith("core"):
            assert len(adjacency[hub]) == 4  # one agg per pod
        elif hub.startswith("agg"):
            assert len(adjacency[hub]) == 4  # k/2 up + k/2 down


def test_port_budget_overflow_raises():
    with pytest.raises(TopologyError):
        torus_fabric((3, 3, 3, 3, 3, 3, 3, 3))  # 16 link ports + 1 CAB
    with pytest.raises(TopologyError):
        hypercube_fabric(16)
    with pytest.raises(TopologyError):
        fat_tree_fabric(18)
    with pytest.raises(TopologyError):
        fat_tree_fabric(3)


def test_validate_rejects_port_clashes_and_bad_refs():
    with pytest.raises(TopologyError):
        FabricSpec("bad", ("h0", "h1"), (("h0", 0, "h1", 0),),
                   (("cab0", "h0", 0),)).validate()
    with pytest.raises(TopologyError):
        FabricSpec("bad", ("h0",), (), (("cab0", "h9", 0),)).validate()
    with pytest.raises(TopologyError):
        FabricSpec("bad", ("h0", "h1"), (("h0", 0, "h0", 1),),
                   ()).validate()


# ----------------------------------------------------------------------
# routing tables vs. brute-force reference
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec", [
    torus_fabric((3, 3)),
    torus_fabric((2, 2, 2)),
    hypercube_fabric(3),
    fat_tree_fabric(4),
], ids=lambda spec: spec.name)
def test_routes_are_shortest_paths(spec):
    router = spec_router(spec)
    adjacency = spec.adjacency()
    location = {cab: (hub, port) for cab, hub, port in spec.cabs}
    names = spec.cab_names
    for src in names:
        for dst in names:
            if src == dst:
                continue
            route = router.route(src, dst)
            src_hub, _ = location[src]
            dst_hub, dst_port = location[dst]
            # Hop count = shortest hub path (every hub on the way,
            # including the destination hub's final CAB-facing hop).
            assert len(route.hops) == \
                bfs_distance(adjacency, src_hub, dst_hub) + 1
            assert route.hops[0].hub.name == src_hub
            assert route.hops[-1].hub.name == dst_hub
            assert route.hops[-1].out_port == dst_port
            # Consecutive hops traverse real fabric links.
            for here, there in zip(route.hops, route.hops[1:]):
                assert there.hub.name in adjacency[here.hub.name]


def test_partition_router_matches_global_router():
    spec = torus_fabric((3, 3))
    partitioning = partition_fabric(spec, 3)
    global_router = spec_router(spec)
    for index in range(3):
        system = PartitionSystem(partitioning, index)
        for cab_name in system.cabs:
            for dst in spec.cab_names:
                if dst == cab_name:
                    continue
                local = system.router.route(cab_name, dst)
                reference = global_router.route(cab_name, dst)
                assert [(hop.hub.name, hop.out_port)
                        for hop in local.hops] == \
                    [(hop.hub.name, hop.out_port)
                     for hop in reference.hops]


# ----------------------------------------------------------------------
# system builders
# ----------------------------------------------------------------------

def test_build_system_replays_spec():
    spec = torus_fabric((2, 2), cabs_per_hub=2)
    system = build_system(spec)
    assert set(system.hubs) == set(spec.hubs)
    assert set(system.cabs) == set(spec.cab_names)
    for cab, hub, port in spec.cabs:
        located_hub, located_port = system.router.cab_location(cab)
        assert (located_hub.name, located_port) == (hub, port)


def test_build_system_replays_each_family():
    assert len(build_system(torus_fabric((2, 2))).hubs) == 4
    assert len(build_system(hypercube_fabric(2, cabs_per_hub=2)).cabs) == 8
    assert len(build_system(fat_tree_fabric(4)).cabs) == 16


# ----------------------------------------------------------------------
# partitioner invariants
# ----------------------------------------------------------------------

def test_partitioner_covers_hubs_exactly_once():
    spec = hypercube_fabric(4)
    for count in (1, 2, 3, 5, 16):
        partitioning = partition_fabric(spec, count)
        flattened = [hub for part in partitioning.parts for hub in part]
        assert flattened == list(spec.hubs)  # order-preserving cover
        sizes = [len(part) for part in partitioning.parts]
        assert max(sizes) - min(sizes) <= 1


def test_cut_links_cross_partitions_and_nothing_else():
    spec = torus_fabric((4, 4))
    partitioning = partition_fabric(spec, 4)
    owners = partitioning.owner_map()
    cuts = set(partitioning.cut_links())
    for link in spec.links:
        hub_a, _pa, hub_b, _pb = link
        if owners[hub_a] != owners[hub_b]:
            assert link in cuts
        else:
            assert link not in cuts


def test_partitioner_rejects_bad_counts():
    spec = torus_fabric((2, 2))
    with pytest.raises(TopologyError):
        partition_fabric(spec, 0)
    with pytest.raises(TopologyError):
        partition_fabric(spec, 5)
    with pytest.raises(TopologyError):
        Partitioning(fabric=spec, parts=(spec.hubs[:2],)).validate()


_tori = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(
    lambda dims: torus_fabric(tuple(dims))).filter(
    lambda spec: len(spec.hubs) >= 4)
_fabrics = _tori | st.integers(2, 5).map(hypercube_fabric) \
    | st.sampled_from([2, 4]).map(fat_tree_fabric)


@settings(max_examples=80, deadline=None)
@given(_fabrics, st.integers(2, 4), st.randoms(use_true_random=False))
def test_weighted_cut_is_a_partition_never_heavier_than_index_order(
        spec, count, rng):
    names = list(spec.cab_names)
    targets = names[:]
    rng.shuffle(targets)
    flows = [(src, dst) for src, dst in zip(names, targets) if src != dst]
    paths = flow_paths(spec, flows)
    chosen = partition_fabric(spec, count, paths)
    # A true partition, and the same one every time.
    chosen.validate()
    assert sorted(hub for part in chosen.parts for hub in part) \
        == sorted(spec.hubs)
    assert chosen.parts == partition_fabric(spec, count, paths).parts
    index_order = partition_fabric(spec, count)
    assert [hub for part in index_order.parts for hub in part] \
        == list(spec.hubs)
    assert chosen.score(paths) <= index_order.score(paths)
    if spec.dims is None:
        assert chosen.parts == index_order.parts


def test_torus_shift_traffic_is_cut_into_slabs_it_stays_inside():
    # The e2e torus-p2 shape: CAB i sends to CAB i + 128, +2 on the first
    # axis.  Construction order cuts that axis, so every flow crosses
    # and partition 0 carries two hub visits of each three; a slab on
    # the second axis keeps every flow inside one worker.
    spec = torus_fabric((4, 4, 4, 4))
    flows = ScaleoutScenario("t", "", spec).flows()
    paths = flow_paths(spec, flows)
    assert partition_fabric(spec, 2).score(paths) == (512, 256)
    chosen = partition_fabric(spec, 2, paths)
    assert chosen.score(paths) == (384, 0)
    assert chosen.parts[0][:2] == ("hub_0_0_0_0", "hub_0_0_0_1")
    assert {hub.split("_")[2] for hub in chosen.parts[0]} == {"0", "1"}
    assert chosen.cut_links()


def test_partition_systems_jointly_cover_the_fabric():
    spec = torus_fabric((2, 2, 2))
    partitioning = partition_fabric(spec, 4)
    seen_hubs, seen_cabs = set(), set()
    for index in range(4):
        system = PartitionSystem(partitioning, index)
        assert not seen_hubs & set(system.hubs)
        seen_hubs |= set(system.hubs)
        seen_cabs |= set(system.cabs)
        # Every local hub port on a cut link got boundary plumbing.
        owners = partitioning.owner_map()
        for hub_a, port_a, hub_b, port_b in partitioning.cut_links():
            for hub, port, remote in ((hub_a, port_a, hub_b),
                                      (hub_b, port_b, hub_a)):
                if owners[hub] != index:
                    continue
                hub_port = system.hubs[hub].port(port)
                assert hub_port.out_fiber is not None
                assert hasattr(hub_port.peer, "schedule_notify_ready")
    assert seen_hubs == set(spec.hubs)
    assert seen_cabs == set(spec.cab_names)
