"""F1–F8: structural reproduction of every figure in the paper.

The figures are architecture diagrams; these tests verify that the model
reconstructs each depicted configuration exactly.
"""

import pytest

from repro.config import NectarConfig
from repro.hardware import CabBoard, Hub
from repro.sim import Simulator
from repro.topology import figure7_system, mesh_system, single_hub_system


class TestF1SystemOverview:
    """Figure 1: nodes — CABs — Nectar-net (hubs + fibers)."""

    def test_every_layer_present_and_wired(self):
        system = single_hub_system(3, with_nodes=True)
        for index in range(3):
            stack = system.cab(f"cab{index}")
            node = system.node(f"node{index}")
            assert node.cab is stack.board                    # node—CAB
            assert stack.board.out_fiber is not None          # CAB—net
            assert stack.board.hub_port.hub is system.hub("hub0")


class TestF2SingleHubSystem:
    """Figure 2: all CABs connected to the same HUB."""

    def test_all_cabs_on_one_hub(self):
        system = single_hub_system(8)
        hubs = {system.cab(f"cab{i}").board.hub_port.hub.name
                for i in range(8)}
        assert hubs == {"hub0"}

    def test_cab_count_limited_by_ports(self):
        """§3.1: the number of CABs is limited by the HUB's I/O ports."""
        system = single_hub_system(16)
        assert len(system.cabs) == 16
        with pytest.raises(Exception):
            single_hub_system(17)


class TestF3HubCluster:
    """Figure 3: a HUB plus its directly connected CABs is a cluster."""

    def test_cluster_membership(self):
        system = mesh_system(1, 2, cabs_per_hub=3)
        cluster0 = [name for name in system.cabs
                    if system.cab(name).board.hub_port.hub.name
                    == "hub_0_0"]
        assert len(cluster0) == 3


class TestF4MultiHubMesh:
    """Figure 4: clusters connected in a 2-D mesh."""

    def test_mesh_degrees(self):
        system = mesh_system(3, 3, cabs_per_hub=1)
        degree = {name: len(system.router.neighbours(name))
                  for name in system.router.hub_names}
        # corners 2, edges 3, centre 4
        assert sorted(degree.values()) == [2, 2, 2, 2, 3, 3, 3, 3, 4]

    def test_identical_ports_for_cab_and_hub_links(self):
        """§3.1: CAB-HUB and HUB-HUB connections use identical ports."""
        system = mesh_system(2, 2, cabs_per_hub=2)
        hub = system.hub("hub_0_0")
        kinds = {type(port.peer).__name__
                 for port in hub.ports if port.peer is not None}
        assert kinds == {"HubPort", "CabBoard"}


class TestF5HubInternals:
    """Figure 5: input queues, output registers, crossbar, controller."""

    def test_port_structure(self):
        cfg = NectarConfig()
        hub = Hub(Simulator(), "h", cfg.hub, cfg.fiber)
        assert len(hub.ports) == 16
        assert hub.crossbar.num_ports == 16
        assert hub.controller is not None
        assert hub.ready_bits == [True] * 16


class TestF6HubPackaging:
    """Figure 6: two 8-port I/O boards + backplane with 16×16 crossbar."""

    def test_prototype_packaging_parameters(self):
        cfg = NectarConfig()
        ports_per_board = 8
        boards = cfg.hub.num_ports // ports_per_board
        assert boards == 2
        assert cfg.hub.num_ports == 16


class TestF7FourHubSystem:
    """Figure 7: the worked circuit/multicast example topology."""

    def test_paper_port_assignments(self):
        system = figure7_system()
        router = system.router
        assert router.cab_location("CAB1") == (system.hub("HUB1"), 8)
        assert router.cab_location("CAB3")[0].name == "HUB2"
        assert router.neighbours("HUB2")["HUB1"] == (8, 3)
        assert router.neighbours("HUB1")["HUB4"] == (6, 1)
        assert router.neighbours("HUB4")["HUB3"] == (3, 6)

    def test_circuit_example_commands(self):
        system = figure7_system()
        route = system.router.route("CAB3", "CAB1")
        assert [(h.hub.name, h.out_port) for h in route.hops] == \
            [("HUB2", 8), ("HUB1", 8)]


class TestF8CabBlockDiagram:
    """Figure 8: CPU, program/data memory, DMA, VME, fiber interface."""

    def test_all_blocks_present(self):
        cfg = NectarConfig()
        cab = CabBoard(Simulator(), "cab", cfg.cab, cfg.fiber)
        assert cab.cpu is not None
        assert cab.data_memory.size == 1 << 20
        assert cab.program_memory.size == 640 << 10
        assert not cab.program_memory.dma_capable     # §5.2
        assert cab.data_memory.dma_capable
        assert cab.dma is not None
        assert cab.vme is not None
        assert cab.checksum.hardware
        assert cab.timers is not None
        assert cab.protection.num_domains == 32
