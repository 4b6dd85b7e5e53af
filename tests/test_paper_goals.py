"""End-to-end checks of the §2.3 performance goals (the paper's headline
numbers), run as tests so regressions in the cost model are caught."""

import pytest

from repro.config import COPY_BYTES_PER_NS, NODE_INTERRUPT_NS, SYSCALL_NS
from repro.sim import units
from repro.topology import single_hub_system
from repro.workload.experiments import (measure_cab_to_cab, measure_multihop,
                                        measure_node_to_node,
                                        measure_throughput)


class TestLatencyGoals:
    def test_cab_to_cab_under_30us(self):
        """§2.3: process-to-process on two CABs under 30 µs."""
        assert measure_cab_to_cab(size=32)["latency_us"] < 30

    def test_node_to_node_under_100us(self):
        """§2.3: process-to-process on two nodes under 100 µs."""
        assert measure_node_to_node("shm", size=32)["latency_us"] < 100

    def test_multihop_adds_little(self):
        """§4 goal 3: multi-HUB latency not significantly higher —
        each extra HUB adds about a microsecond, not tens."""
        one = measure_multihop(1)["latency_us"]
        four = measure_multihop(4)["latency_us"]
        assert (four - one) / 3 < 3          # ~1 µs per extra HUB
        assert four < 1.5 * one              # "not significantly higher"

    def test_large_transfer_saturates_fiber(self):
        """Abstract: pipelined transfers reach the 100 Mb/s line rate."""
        assert measure_throughput(500_000)["mbps"] > 90.0


class TestNodeHost:
    def test_cost_helpers_charge_cpu(self):
        system = single_hub_system(2, with_nodes=True)
        node = system.node("node0")

        def body():
            yield from node.syscall_cost()
            yield from node.interrupt_cost()
            yield from node.copy(10_000)
        node.run(body())
        system.run(until=10_000_000)
        expected = (SYSCALL_NS + NODE_INTERRUPT_NS
                    + units.transfer_time(10_000, COPY_BYTES_PER_NS))
        assert node.busy_ns == expected
        assert node.syscalls == 1
        assert node.interrupts == 1

    def test_node_cpu_serialises(self):
        system = single_hub_system(2, with_nodes=True)
        node = system.node("node0")
        finish = []

        def worker(tag):
            yield from node.compute(1_000)
            finish.append((tag, system.now))
        node.run(worker("a"))
        node.run(worker("b"))
        system.run(until=10_000_000)
        assert finish == [("a", 1_000), ("b", 2_000)]

    def test_vme_requires_cab(self, sim):
        from repro.errors import NodeError
        from repro.hardware.node import NodeHost
        node = NodeHost(sim, "lonely")
        with pytest.raises(NodeError):
            next(node.vme_write(100))

    def test_double_cab_attach_rejected(self):
        from repro.errors import NodeError
        system = single_hub_system(2, with_nodes=True)
        with pytest.raises(NodeError):
            system.node("node0").attach_cab(system.cab("cab1").board)


class TestQuickReport:
    def test_report_measures_every_row_and_passes(self, capsys):
        """``python -m repro report``: every status is measured (the
        switching rate too), and a missed goal is a non-zero exit."""
        from repro.__main__ import main
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        for measured in ("700 ns", "1 per 70 ns", "29.5 µs", "44.4 µs",
                         "32.0 µs", "0.83 µs"):
            assert measured in out
        assert "FAIL" not in out and "MISS" not in out

    def test_missed_goal_is_exit_1(self, capsys, monkeypatch):
        from repro.workload import experiments
        from repro.__main__ import main
        monkeypatch.setattr(experiments, "measure_switching_rate",
                            lambda: {"min_gap_ns": 140})
        assert main(["report"]) == 1
        assert "1 per 140 ns  MISS" in capsys.readouterr().out
