"""What a node costs to have: build-time heap budgets and lazy state.

The budgets hold ``tools/footprint.py``'s own measurement to a ceiling,
so a per-node table that is built eagerly again fails here, not in a
benchmark.  Before the footprint diet the 256-node torus build retained
140 MiB (protection tables 104.5, idle waiter deques 16.3, never-drawn
RNG states 7.8); it is under 20 MiB now.
"""

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
    assert measured.total_bytes <= 24 * footprint.MIB, footprint.render(
        "torus-256", measured, 10)
    worst_bytes, _blocks, worst_line = measured.lines[0]
    assert worst_bytes <= 6 * footprint.MIB, \
        f"{worst_line} holds {worst_bytes} B"
    assert measured.file_bytes("hardware/memory.py") <= 1 * footprint.MIB


def test_single_hub_build_costs_tens_of_kib_per_cab(footprint):
    measured = footprint.measure(footprint.TOPOLOGIES["single-hub-12"])
    assert measured.nodes == 12
    # 14 KiB per CAB today; the eager protection tables alone were 426.
    assert measured.per_node_kib <= 32, footprint.render(
        "single-hub-12", measured, 10)


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
