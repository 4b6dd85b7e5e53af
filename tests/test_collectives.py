"""repro.collectives: HUB-offloaded and software collective operations."""

from dataclasses import replace

import pytest

from repro.collectives import (CollectiveGroup, tree_children, tree_depth,
                               tree_parent)
from repro.config import NectarConfig
from repro.errors import CollectiveError
from repro.nectarine import NectarineRuntime
from repro.topology import linear_system, mesh_system, single_hub_system


def make_group(system, count, mode=None, prefix="t", cabs=None):
    """A runtime + one task per rank on distinct CABs (by default)."""
    runtime = NectarineRuntime(system)
    cabs = cabs or [system.cab(f"cab{i}") for i in range(count)]
    tasks = [runtime.create_task(f"{prefix}{i}", cab)
             for i, cab in enumerate(cabs)]
    return CollectiveGroup(tasks, mode=mode), tasks


def run_all(system, group, tasks, body, until=2_000_000_000):
    """Start ``body(rank)`` (a generator fn) on every task and run."""
    for rank, task in enumerate(tasks):
        task.start(lambda _task, r=rank: body(r))
    system.run(until=until)


class TestTreeHelpers:
    def test_parent_child_consistency(self):
        for n in (1, 2, 3, 5, 8, 13):
            for fanout in (2, 3, 4):
                for rank in range(n):
                    parent = tree_parent(rank, n, fanout)
                    if rank == 0:
                        assert parent is None
                    else:
                        assert rank in tree_children(parent, n, fanout)

    def test_children_cover_all_ranks_once(self):
        n, fanout = 11, 3
        seen = [child for rank in range(n)
                for child in tree_children(rank, n, fanout)]
        assert sorted(seen) == [rank for rank in range(1, n)]

    def test_rotated_root(self):
        assert tree_parent(2, 5, 2, root=2) is None
        children = tree_children(2, 5, 2, root=2)
        assert 2 not in children and len(children) == 2

    def test_depth(self):
        assert tree_depth(1, 4) == 0
        assert tree_depth(5, 4) == 1   # root + 4 children
        assert tree_depth(6, 4) == 2


class TestHubOffload:
    """Single-HUB groups running in the in-network ``hub`` mode."""

    def test_mode_resolution(self):
        system = single_hub_system(4)
        group, _tasks = make_group(system, 4)
        assert group.mode == "hub"

    def test_barrier_waits_for_slowest_rank(self):
        system = single_hub_system(4)
        group, tasks = make_group(system, 4)
        after = {}

        def body(rank):
            if rank == 0:
                yield from tasks[0].cab.kernel.sleep(700_000)
            yield from group.barrier(rank)
            after[rank] = system.now
        run_all(system, group, tasks, body)
        assert set(after) == {0, 1, 2, 3}
        assert min(after.values()) >= 700_000
        hub = system.hubs["hub0"]
        assert hub.counters["collective.barrier_joins"] == 4
        assert hub.counters["collective.barrier_completions"] == 1
        assert hub.counters["collective.releases"] == 4

    @pytest.mark.parametrize("op,expected", [
        ("sum", 1 + 2 + 3 + 4), ("prod", 24), ("min", 1), ("max", 4),
        ("band", 0), ("bor", 7), ("bxor", 1 ^ 2 ^ 3 ^ 4)])
    def test_allreduce_operators(self, op, expected):
        system = single_hub_system(4)
        group, tasks = make_group(system, 4)
        results = {}

        def body(rank):
            results[rank] = yield from group.allreduce(rank, rank + 1,
                                                       op=op)
        run_all(system, group, tasks, body)
        assert results == {rank: expected for rank in range(4)}

    def test_unknown_reduce_op_rejected(self):
        system = single_hub_system(2)
        group, _tasks = make_group(system, 2)
        with pytest.raises(CollectiveError, match="unknown reduce op"):
            next(group.allreduce(0, 1, op="mean"))

    def test_fetch_add_serialises_at_the_controller(self):
        system = single_hub_system(4)
        group, tasks = make_group(system, 4)
        olds = {}

        def body(rank):
            olds[rank] = yield from group.fetch_add(rank, register=7,
                                                    delta=1)
        run_all(system, group, tasks, body)
        # Each rank got a distinct "old" value: true atomicity.
        assert sorted(olds.values()) == [0, 1, 2, 3]
        assert system.hubs["hub0"].collectives.registers[7] == 4
        assert system.hubs["hub0"].counters["collective.fetch_adds"] == 4

    def test_fetch_add_refused_in_software_mode(self):
        system = single_hub_system(2)
        group, _tasks = make_group(system, 2, mode="tree")
        with pytest.raises(CollectiveError, match="software mode"):
            next(group.fetch_add(0, register=1))

    def test_epochs_advance_across_repeated_barriers(self):
        system = single_hub_system(3, cfg=NectarConfig(seed=7))
        group, tasks = make_group(system, 3)
        counts = {rank: 0 for rank in range(3)}

        def body(rank):
            for _ in range(5):
                yield from group.barrier(rank)
                counts[rank] += 1
        run_all(system, group, tasks, body)
        assert counts == {0: 5, 1: 5, 2: 5}
        hub = system.hubs["hub0"]
        assert hub.counters["collective.barrier_completions"] == 5
        assert hub.counters.get("collective.stale", 0) == 0

    def test_overlapping_groups_on_one_hub(self):
        """Two independent groups combine concurrently on one HUB."""
        system = single_hub_system(6)
        runtime = NectarineRuntime(system)
        low = [runtime.create_task(f"lo{i}", system.cab(f"cab{i}"))
               for i in range(3)]
        high = [runtime.create_task(f"hi{i}", system.cab(f"cab{i + 3}"))
                for i in range(3)]
        group_a = CollectiveGroup(low, name="low")
        group_b = CollectiveGroup(high, name="high")
        assert group_a.gid != group_b.gid
        results = {}

        def body(group, label, rank):
            total = yield from group.allreduce(rank, rank + 1)
            yield from group.barrier(rank)
            results[(label, rank)] = total
        for rank, task in enumerate(low):
            task.start(lambda _t, r=rank: body(group_a, "a", r))
        for rank, task in enumerate(high):
            task.start(lambda _t, r=rank: body(group_b, "b", r))
        system.run(until=2_000_000_000)
        assert all(results[("a", rank)] == 6 for rank in range(3))
        assert all(results[("b", rank)] == 6 for rank in range(3))

    def test_hub_broadcast_uses_hardware_multicast(self):
        system = single_hub_system(4)
        group, tasks = make_group(system, 4)
        got = {}

        def body(rank):
            data = b"from the root" if rank == 0 else None
            got[rank] = yield from group.broadcast(rank, data)
        run_all(system, group, tasks, body)
        assert got == {rank: b"from the root" for rank in range(4)}
        counters = system.cab("cab0").datalink.counters
        assert counters["multicasts_packet_mode"] \
            + counters.get("multicasts_circuit_mode", 0) >= 1

    def test_reset_clears_group_state(self):
        system = single_hub_system(3)
        group, tasks = make_group(system, 3)
        done = {}

        def body(rank):
            yield from group.fetch_add(rank, register=group.gid, delta=5)
            yield from group.barrier(rank)
            if rank == 0:
                yield from group.reset(rank)
            done[rank] = True
        run_all(system, group, tasks, body)
        assert done == {0: True, 1: True, 2: True}
        unit = system.hubs["hub0"].collectives
        assert group.gid not in unit.registers
        assert unit.status()["groups"] == {}


class TestPayloadSizes:
    """Data collectives across the fragmentation boundary."""

    @pytest.mark.parametrize("size", [1, 959, 960, 961, 4000])
    def test_broadcast_sizes(self, size):
        cfg = NectarConfig()
        boundary = cfg.transport.max_payload_bytes
        assert boundary == 960  # the sizes above straddle it
        system = single_hub_system(3, cfg=NectarConfig(seed=3))
        group, tasks = make_group(system, 3)
        body_bytes = bytes(i % 251 for i in range(size))
        got = {}

        def body(rank):
            data = body_bytes if rank == 0 else None
            got[rank] = yield from group.broadcast(rank, data)
        run_all(system, group, tasks, body)
        assert got == {rank: body_bytes for rank in range(3)}

    def test_gather_across_fragmentation(self):
        system = single_hub_system(3)
        group, tasks = make_group(system, 3, mode="tree")
        chunks = {rank: bytes([rank]) * (900 + 100 * rank)
                  for rank in range(3)}
        out = {}

        def body(rank):
            out[rank] = yield from group.gather(rank, chunks[rank])
        run_all(system, group, tasks, body)
        assert out[0] == [chunks[0], chunks[1], chunks[2]]
        assert out[1] is None and out[2] is None

    def test_scatter_roundtrip(self):
        system = single_hub_system(4)
        group, tasks = make_group(system, 4)
        chunks = [bytes([rank]) * (rank + 1) for rank in range(4)]
        out = {}

        def body(rank):
            data = chunks if rank == 0 else None
            out[rank] = yield from group.scatter(rank, data)
        run_all(system, group, tasks, body)
        assert out == {rank: chunks[rank] for rank in range(4)}

    def test_allgather_mixed_sizes(self):
        system = single_hub_system(5)
        group, tasks = make_group(system, 5)
        out = {}

        def body(rank):
            out[rank] = yield from group.allgather(
                rank, bytes([65 + rank]) * (rank + 1))
        run_all(system, group, tasks, body)
        expected = [bytes([65 + rank]) * (rank + 1) for rank in range(5)]
        assert out == {rank: expected for rank in range(5)}


class TestSingleRankAndFallbacks:
    def test_single_rank_group_is_immediate(self):
        system = single_hub_system(2)
        group, tasks = make_group(system, 1)
        out = {}

        def body(rank):
            yield from group.barrier(rank)
            out["sum"] = yield from group.allreduce(rank, 42)
            out["bcast"] = yield from group.broadcast(rank, b"solo")
            out["gather"] = yield from group.allgather(rank, b"one")
            out["t"] = system.now
        run_all(system, group, tasks, body)
        assert out["sum"] == 42
        assert out["bcast"] == b"solo"
        assert out["gather"] == [b"one"]

    def test_empty_group_rejected(self):
        with pytest.raises(CollectiveError, match="at least 1 rank"):
            CollectiveGroup([])

    def test_bad_rank_rejected(self):
        system = single_hub_system(2)
        group, _tasks = make_group(system, 2)
        with pytest.raises(CollectiveError, match="no rank 5"):
            next(group.barrier(5))

    def test_shared_cab_falls_back_for_broadcast(self):
        """Hardware multicast needs distinct CABs; sharing one must
        still produce correct results (software tree underneath)."""
        system = single_hub_system(2)
        cabs = [system.cab("cab0"), system.cab("cab1"),
                system.cab("cab0")]
        group, tasks = make_group(system, 3, cabs=cabs)
        assert group.mode == "hub" and not group._unique_cabs
        got = {}

        def body(rank):
            data = b"shared" if rank == 0 else None
            got[rank] = yield from group.broadcast(rank, data)
        run_all(system, group, tasks, body)
        assert got == {0: b"shared", 1: b"shared", 2: b"shared"}

    def test_node_tasks_force_software_mode(self):
        system = single_hub_system(2, with_nodes=True)
        runtime = NectarineRuntime(system)
        tasks = [runtime.create_task("n0", system.node("node0")),
                 runtime.create_task("n1", system.node("node1"))]
        group = CollectiveGroup(tasks)
        assert group.mode == "tree"


class TestMultiHub:
    """Reduction trees spanning several HUBs."""

    def test_mesh_allreduce(self):
        system = mesh_system(2, 2, 1, cfg=NectarConfig(seed=11))
        cabs = [system.cab(f"cab_{r}_{c}_0")
                for r in range(2) for c in range(2)]
        group, tasks = make_group(system, 4, cabs=cabs)
        assert group.mode == "hub"
        assert len(group._hub_tree) == 4
        results = {}

        def body(rank):
            results[rank] = yield from group.allreduce(rank, 1 << rank)
            yield from group.barrier(rank)
        run_all(system, group, tasks, body)
        assert results == {rank: 0b1111 for rank in range(4)}
        # Non-root HUBs forwarded combined joins upward.
        upstream = sum(hub.counters.get("collective.upstream", 0)
                       for hub in system.hubs.values())
        assert upstream >= 3  # 3 non-root hubs x (reduce) at least

    def test_linear_chain_with_transit_hub(self):
        """Members on the end HUBs only: the middle HUB is pure transit
        and must still relay the combine (expected = children only)."""
        system = linear_system(3, 2, cfg=NectarConfig(seed=5))
        cabs = [system.cab("cab0_0"), system.cab("cab0_1"),
                system.cab("cab2_0"), system.cab("cab2_1")]
        group, tasks = make_group(system, 4, cabs=cabs)
        spec = group._hub_tree
        assert spec["hub1"]["expected"] == 1  # one child hub, no members
        results = {}

        def body(rank):
            results[rank] = yield from group.allreduce(rank, rank + 1)
        run_all(system, group, tasks, body)
        assert results == {rank: 10 for rank in range(4)}

    def test_remote_fetch_add(self):
        """A rank whose HUB is not the register's home reaches it via a
        routed supervisor command (``collective_command`` with a remote
        ``hub_name``: a circuit to the home HUB)."""
        system = linear_system(2, 2, cfg=NectarConfig(seed=13))
        cabs = [system.cab("cab0_0"), system.cab("cab1_0")]
        group, tasks = make_group(system, 2, cabs=cabs)
        olds = {}

        def body(rank):
            olds[rank] = yield from group.fetch_add(rank, register=9)
        run_all(system, group, tasks, body)
        assert sorted(olds.values()) == [0, 1]
        assert system.hubs[group._root_hub].collectives.registers[9] == 2

    def test_mesh_broadcast(self):
        system = mesh_system(2, 2, 1, cfg=NectarConfig(seed=17))
        cabs = [system.cab(f"cab_{r}_{c}_0")
                for r in range(2) for c in range(2)]
        group, tasks = make_group(system, 4, cabs=cabs)
        got = {}

        def body(rank):
            data = b"mesh-wide" if rank == 0 else None
            got[rank] = yield from group.broadcast(rank, data)
        run_all(system, group, tasks, body)
        assert got == {rank: b"mesh-wide" for rank in range(4)}


class TestFaultTolerance:
    def test_collectives_complete_or_fail_cleanly_under_drops(self):
        """Under a drop-burst campaign every rank either finishes its
        collectives or raises CollectiveError — nobody hangs."""
        from repro.faults import build_campaign
        cfg = NectarConfig(seed=1989)
        cfg = replace(cfg, collectives=replace(
            cfg.collectives, reply_timeout_ns=5_000_000,
            software_timeout_ns=5_000_000))
        system = single_hub_system(4, cfg=cfg)
        system.inject_faults(build_campaign("drop-burst", cfg))
        group, tasks = make_group(system, 4)
        outcomes = {}

        def body(rank):
            try:
                for round_no in range(20):
                    yield from group.allreduce(rank, rank + round_no)
                    yield from group.barrier(rank)
                outcomes[rank] = "done"
            except CollectiveError:
                outcomes[rank] = "failed"
        run_all(system, group, tasks, body, until=30_000_000_000)
        # The property under test: every rank terminated with a verdict.
        assert set(outcomes) == {0, 1, 2, 3}
        assert set(outcomes.values()) <= {"done", "failed"}

    def test_software_tree_never_hangs_under_drops(self):
        from repro.faults import build_campaign
        cfg = NectarConfig(seed=77)
        cfg = replace(cfg, collectives=replace(
            cfg.collectives, software_timeout_ns=5_000_000))
        system = single_hub_system(3, cfg=cfg)
        system.inject_faults(build_campaign("drop-burst", cfg))
        group, tasks = make_group(system, 3, mode="tree")
        outcomes = {}

        def body(rank):
            try:
                for _ in range(20):
                    yield from group.barrier(rank)
                outcomes[rank] = "done"
            except CollectiveError:
                outcomes[rank] = "failed"
        run_all(system, group, tasks, body, until=30_000_000_000)
        assert set(outcomes) == {0, 1, 2}


class TestDeterminism:
    def scenario(self):
        system = single_hub_system(5, cfg=NectarConfig(seed=1989))
        group, tasks = make_group(system, 5)
        trace = []

        def body(rank):
            total = yield from group.allreduce(rank, rank * 3 + 1)
            yield from group.barrier(rank)
            parts = yield from group.allgather(rank, bytes([rank]))
            trace.append((rank, system.now, total, b"".join(parts)))
        run_all(system, group, tasks, body)
        counters = {name: dict(sorted(hub.counters.items()))
                    for name, hub in sorted(system.hubs.items())}
        return sorted(trace), counters, system.now

    def test_repeat_runs_identical(self):
        assert self.scenario() == self.scenario()


class TestControllerMetrics:
    def test_controller_probes_registered(self):
        system = single_hub_system(3)
        observatory = system.observe(interval_ns=10_000)
        group, tasks = make_group(system, 3)

        def body(rank):
            yield from group.allreduce(rank, rank)
            yield from group.barrier(rank)
        run_all(system, group, tasks, body, until=50_000_000)
        names = set(observatory.series)
        for suffix in ("commands", "util", "queue_depth", "waiters",
                       "frozen", "retry_expirations"):
            assert f"hub0.controller.{suffix}" in names, suffix
        commands = observatory.series["hub0.controller.commands"]
        assert commands.values[-1] > 0
        frozen = observatory.series["hub0.controller.frozen"]
        assert all(value == 0.0 for value in frozen.values)


class TestCollectivesCli:
    def test_ecol_cli_runs_twice_identically_and_hub_wins(self, capsys):
        """What the CI ``collectives`` job does: run the command twice,
        diff the output; the HUB offload beats both software paths."""
        from repro.__main__ import main
        assert main(["collectives"]) == 0
        first = capsys.readouterr().out
        assert main(["collectives"]) == 0
        assert capsys.readouterr().out == first
        finish_ms = {line.split()[0]: float(line.split()[1])
                     for line in first.splitlines()
                     if line.split()[:1] in (["hub"], ["tree"],
                                             ["exchange"])}
        assert finish_ms["hub"] < finish_ms["tree"]
        assert finish_ms["hub"] < finish_ms["exchange"]
