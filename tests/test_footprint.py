"""What a node costs to have: build-time heap budgets and lazy state.

The budgets hold ``tools/footprint.py``'s own measurement to a ceiling,
so a per-node table that is built eagerly again fails here, not in a
benchmark.  Before the footprint diet the 256-node torus build retained
140 MiB (protection tables 104.5, idle waiter deques 16.3, never-drawn
RNG states 7.8); 13.9 MiB before idle HUB ports, fibers and crossbar
inputs stopped holding a process, a queue and a fan-out set each
(9.5 MiB of it); 4.4 MiB now.
"""

from collections import deque

import pytest

from repro.config import NectarConfig
from repro.scaleout import run_single, scenarios
from repro.topology import single_hub_system
from repro.topology.fabrics import build_system, torus_fabric


@pytest.fixture(scope="module")
def footprint(load_script):
    return load_script("tools/footprint.py")


def test_torus_256_build_stays_within_budget(footprint):
    measured = footprint.measure(footprint.TOPOLOGIES["torus-256"])
    assert measured.nodes == 256
    # 4.4 MiB today; 13.9 with a standing process and queue per port.
    assert measured.total_bytes <= 6 * footprint.MIB, footprint.render(
        "torus-256", measured, 10)
    assert measured.file_bytes("hardware/memory.py") <= 1 * footprint.MIB


def test_single_hub_build_costs_tens_of_kib_per_cab(footprint):
    measured = footprint.measure(footprint.TOPOLOGIES["single-hub-12"])
    assert measured.nodes == 12
    # 11.2 KiB per CAB today (15.5 with standing port processes); the
    # eager protection tables alone were 426.
    assert measured.per_node_kib <= 14, footprint.render(
        "single-hub-12", measured, 10)


def test_a_fresh_fabric_has_an_empty_agenda_and_no_port_queues():
    scenario = scenarios()["escl-torus-64"]
    system = build_system(scenario.fabric, scenario.config())
    assert system.sim.peek() is None
    ports = [port for hub in system.hubs.values() for port in hub.ports]
    assert len(ports) == 64 * 16
    assert not [port for port in ports
                if any(isinstance(value, deque)
                       for value in vars(port).values())]


@pytest.fixture
def streams_requested(monkeypatch):
    """Names of every seed-derived RNG stream made while the test runs."""
    names = []
    derive = NectarConfig.rng_stream

    def recording(self, name=""):
        names.append(name)
        return derive(self, name)
    monkeypatch.setattr(NectarConfig, "rng_stream", recording)
    return names


def test_building_a_system_seeds_no_rng(streams_requested):
    single_hub_system(12)
    build_system(torus_fabric((2, 2, 2)))
    assert streams_requested == []


def test_fault_free_run_draws_from_no_fiber_or_datalink_stream(
        streams_requested):
    result = run_single(scenarios()["escl-torus-16"])
    assert result.events > 0
    drawn = [name for name in streams_requested
             if "->" in name or name.startswith("dl:")]
    assert drawn == []
