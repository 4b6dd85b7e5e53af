"""Random cuts as a differential oracle for the partitioned run.

The determinism argument holds for *any* assignment of hubs to
partitions, not only the cut :func:`~repro.scaleout.partition_fabric`
picks.  :func:`run_cut` drives the worker protocol in one process — the
same :class:`~repro.scaleout.PartitionSystem`, route set, lookahead
matrix and :mod:`~repro.scaleout.planner` calls, with no fork and no
pipe — so a hypothesis property can hold many random, non-contiguous
cuts to the single-process run: the fingerprint always, the event
count and the clock of the last event when no fault campaign is armed.  Random cuts leave many pairs of partitions that no route
joins, so they exercise the route-aware matrix too.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scaleout import (Partitioning, PartitionSystem, ScaleoutScenario,
                            escl_campaign, flow_paths, lookahead_matrix,
                            merge_fragments, route_set, run_single,
                            spawn_traffic)
from repro.scaleout.planner import plan_round, post, take_due
from repro.sim import SimulationError
from repro.topology.fabrics import (fat_tree_fabric, hypercube_fabric,
                                    torus_fabric)


def run_cut(scenario, parts, faults=None):
    """``(fingerprint, events, last event ns)`` of ``scenario`` cut into
    ``parts`` (hub-name tuples), every partition in this process, round
    by round as the workers run them."""
    partitioning = Partitioning(scenario.fabric, tuple(parts))
    routes = None if faults else route_set(
        flow_paths(scenario.fabric, scenario.flows()))
    cfg = scenario.config()
    systems = [PartitionSystem(partitioning, index, cfg, routes)
               for index in range(len(parts))]
    traffic = []
    for system in systems:
        if faults:
            system.inject_faults(faults)
        traffic.append(spawn_traffic(scenario, system))
    distance = lookahead_matrix(partitioning, cfg, routes)
    owners = partitioning.owner_map()
    peeks = [None] * len(systems)
    pending = [[] for _ in systems]
    reported = range(len(systems))
    while True:
        for source in reported:
            peeks[source] = systems[source].sim.peek()
            for envelope in systems[source].drain_outbox():
                post(pending[owners[envelope[3]]], source, envelope)
        grants = plan_round(peeks, pending, distance)
        if grants is None:
            break
        for index, grant in grants.items():
            system = systems[index]
            system.inject(take_due(pending[index], grant))
            system.run(until=None if grant is None
                       else max(grant, system.now))
        reported = grants
    return (merge_fragments([part.fragment() for part in traffic]),
            sum(system.sim.events_processed for system in systems),
            max(system.sim.last_ns for system in systems))


_FABRICS = {"torus-2x2x2x2": lambda: torus_fabric((2, 2, 2, 2)),
            "torus-3x3": lambda: torus_fabric((3, 3)),
            "hypercube-4": lambda: hypercube_fabric(4),
            "hypercube-5": lambda: hypercube_fabric(5),
            "hypercube-6": lambda: hypercube_fabric(6),
            "fattree-4": lambda: fat_tree_fabric(4)}
_BUILT = {}


def fabric(name):
    if name not in _BUILT:
        _BUILT[name] = _FABRICS[name]()
    return _BUILT[name]


@st.composite
def random_cuts(draw, spec):
    """A random assignment of ``spec``'s hubs to 2-4 non-empty parts."""
    hubs = spec.hubs
    count = draw(st.integers(2, 4))
    owners = draw(st.lists(st.integers(0, count - 1), min_size=len(hubs),
                           max_size=len(hubs)))
    for part, hub in enumerate(draw(st.permutations(range(len(hubs))))
                               [:count]):
        owners[hub] = part
    return [tuple(hub for hub, owner in zip(hubs, owners) if owner == part)
            for part in range(count)]


@st.composite
def cut_runs(draw):
    """``(scenario, parts, campaign name or None, seed)``: the seed
    picks the message size and the campaign's windows."""
    name = draw(st.sampled_from(sorted(_FABRICS)))
    seed = draw(st.integers(0, 1 << 16))
    mode = draw(st.sampled_from(["packet", "circuit"]))
    scenario = ScaleoutScenario(
        f"cut-{name}-s{seed}", "a random cut", fabric(name),
        messages_per_cab=draw(st.integers(1, 3)),
        message_bytes=(2048 if mode == "circuit" else 504)
        + random.Random(seed).randrange(17),
        mode=mode)
    campaigns = ["drop-burst", "corrupt-burst", "link-flap"]
    if not name.startswith("fattree"):
        campaigns.append("reply-storm")  # no reply target in a fat tree
    campaign = draw(st.none() | st.sampled_from(campaigns))
    return scenario, draw(random_cuts(scenario.fabric)), campaign, seed


@given(cut_runs())
@settings(deadline=None, max_examples=100)
def test_every_cut_matches_the_single_process_run(run):
    scenario, parts, campaign, seed = run
    faults = None
    if campaign:
        # The seed moves the fault windows; the run's own config stays.
        faults = escl_campaign(campaign,
                               replace(scenario.config(), seed=seed))
    try:
        reference = run_single(scenario, faults=faults)
    except SimulationError:
        # A campaign can exhaust a circuit's retries: the cut run must
        # fail too (which CAB's crash it meets first depends on the
        # order partitions run in, so only the failure is compared).
        with pytest.raises(SimulationError, match="crashed"):
            run_cut(scenario, parts, faults)
        return
    fingerprint, events, last_ns = run_cut(scenario, parts, faults)
    assert fingerprint == reference.fingerprint
    if faults is None:
        assert (events, last_ns) == (reference.events, reference.sim_ns)


def test_a_cut_fails_where_the_single_process_run_fails():
    # Found by the property above: under this drop-burst schedule one
    # circuit open runs out of retries.  A cut run meets the same crash,
    # where the first version of the property only expected results.
    spec = fabric("torus-3x3")
    scenario = ScaleoutScenario("cut-torus-3x3-s0", "a random cut", spec,
                                messages_per_cab=1, message_bytes=2060,
                                mode="circuit")
    faults = escl_campaign("drop-burst", replace(scenario.config(), seed=0))
    crash = "cab5: circuit to cab0 failed after 8 attempts"
    with pytest.raises(SimulationError, match=crash):
        run_single(scenario, faults=faults)
    parts = [tuple(hub for hub in spec.hubs if hub != "hub_0_1"),
             ("hub_0_1",)]
    with pytest.raises(SimulationError, match=crash):
        run_cut(scenario, parts, faults)


def test_the_route_aware_matrix_leaves_uncrossed_pairs_unbounded():
    # A 4-cube cut into index-order quarters: the shift partner flips the
    # top index bit, so routes join partitions 0 and 2, and 1 and 3,
    # only.  Each pair then bounds the other and nothing else.
    scenario = ScaleoutScenario("cube", "", hypercube_fabric(4))
    parts = [scenario.fabric.hubs[start:start + 4] for start in (0, 4, 8, 12)]
    routes = route_set(flow_paths(scenario.fabric, scenario.flows()))
    matrix = lookahead_matrix(Partitioning(scenario.fabric, tuple(parts)),
                              scenario.config(), routes)
    lookahead = scenario.propagation_ns
    assert matrix == [[2 * lookahead, None, lookahead, None],
                      [None, 2 * lookahead, None, lookahead],
                      [lookahead, None, 2 * lookahead, None],
                      [None, lookahead, None, 2 * lookahead]]
    reference = run_single(scenario)
    assert run_cut(scenario, parts) == (reference.fingerprint,
                                        reference.events, reference.sim_ns)
