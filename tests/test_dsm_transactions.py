"""Tests for the §7 'OS co-processor' applications: shared virtual
memory (Mach-style DSM) and Camelot-style distributed transactions."""

import pytest

from repro.apps import (SharedVirtualMemory, TransactionAborted,
                        TransactionManager)
from repro.errors import NectarError
from repro.topology import single_hub_system


def make_dsm(nodes=4, num_pages=16):
    system = single_hub_system(nodes)
    dsm = SharedVirtualMemory(
        system, [system.cab(f"cab{i}") for i in range(nodes)],
        num_pages=num_pages)
    return system, dsm


def run_dsm(system, dsm, bodies, until=60_000_000_000):
    results = {}

    def wrap(index, body):
        def runner():
            results[index] = yield from body(dsm.node(index))
        return runner
    for index, body in bodies.items():
        system.cab(f"cab{index}").spawn(wrap(index, body)())
    system.run(until=until)
    assert set(results) == set(bodies), "a DSM worker did not finish"
    return results


class TestDsm:
    def test_read_miss_then_hit(self):
        system, dsm = make_dsm()

        def body(node):
            first = yield from node.read(5)
            second = yield from node.read(5)
            return first, second
        results = run_dsm(system, dsm, {2: body})
        assert results[2] == (0, 0)
        assert dsm.node(2).read_faults == 1
        assert dsm.node(2).read_hits == 1

    def test_write_bumps_version(self):
        system, dsm = make_dsm()

        def body(node):
            v1 = yield from node.write(3)
            v2 = yield from node.write(3)
            return v1, v2
        results = run_dsm(system, dsm, {1: body})
        assert results[1] == (1, 2)
        assert dsm.node(1).write_faults == 1
        assert dsm.node(1).write_hits == 1

    def test_write_invalidates_readers(self):
        system, dsm = make_dsm()

        def reader(node):
            version = yield from node.read(7)
            # Wait out the writer, then read again: must see new data.
            yield from node.stack.kernel.sleep(5_000_000)
            version2 = yield from node.read(7)
            return version, version2

        def writer(node):
            yield from node.stack.kernel.sleep(1_000_000)
            version = yield from node.write(7)
            return version
        results = run_dsm(system, dsm, {1: reader, 2: writer})
        assert results[2] == 1
        assert results[1][0] == 0
        assert results[1][1] == 1          # invalidation forced a re-fetch
        assert dsm.node(1).invalidations_received >= 1

    def test_ownership_transfer(self):
        system, dsm = make_dsm()

        def writer_a(node):
            version = yield from node.write(9)
            return version

        def writer_b(node):
            yield from node.stack.kernel.sleep(3_000_000)
            version = yield from node.write(9)
            return version
        results = run_dsm(system, dsm, {0: writer_a, 3: writer_b})
        assert results[3] > results[0]

    def test_versions_monotonic_under_contention(self):
        system, dsm = make_dsm(nodes=4, num_pages=4)

        def body(node):
            seen = []
            for round_index in range(6):
                page = (node.index + round_index) % 4
                if round_index % 2:
                    version = yield from node.write(page)
                else:
                    version = yield from node.read(page)
                seen.append((page, version))
            return seen
        results = run_dsm(system, dsm,
                          {i: body for i in range(4)},
                          until=120_000_000_000)
        # Per page, committed versions never decrease per observer.
        for observations in results.values():
            per_page = {}
            for page, version in observations:
                assert version >= per_page.get(page, 0)
                per_page[page] = version

    def test_page_bounds_checked(self):
        system, dsm = make_dsm(num_pages=4)
        with pytest.raises(NectarError):
            next(dsm.node(0).read(99))

    def test_needs_two_nodes(self):
        system = single_hub_system(2)
        with pytest.raises(NectarError):
            SharedVirtualMemory(system, [system.cab("cab0")])

    def test_fault_latency_recorded(self):
        system, dsm = make_dsm()

        def body(node):
            yield from node.read(1)
            yield from node.write(3)   # page 3 is owned by node 3
            return True
        run_dsm(system, dsm, {2: body})
        assert dsm.read_fault_latency.count == 1
        assert dsm.write_fault_latency.count == 1
        assert dsm.read_fault_latency.mean_us < 1_000


class TestTransactions:
    def make(self, participants=3, clients=2):
        system = single_hub_system(participants + clients)
        manager = TransactionManager(
            system,
            [system.cab(f"cab{i}") for i in range(participants)])
        return system, manager

    def test_single_commit(self):
        system, manager = self.make()
        out = {}

        def body(coordinator):
            txn = yield from coordinator.execute({"a": 1, "b": 2})
            value = yield from coordinator.read("a")
            out["txn"] = txn
            out["a"] = value
        manager.coordinator("c", system.cab("cab3")).run(body)
        system.run(until=60_000_000_000)
        assert out["a"] == 1
        assert manager.commits == 1
        assert manager.aborts == 0

    def test_atomicity_across_participants(self):
        system, manager = self.make(participants=3)
        keys = [f"k{i}" for i in range(9)]
        out = {}

        def body(coordinator):
            yield from coordinator.execute({key: 7 for key in keys})
            values = []
            for key in keys:
                value = yield from coordinator.read(key)
                values.append(value)
            out["values"] = values
        manager.coordinator("c", system.cab("cab3")).run(body)
        system.run(until=60_000_000_000)
        assert out["values"] == [7] * 9
        shards = {p.index for p in map(manager.participant_for, keys)}
        assert len(shards) > 1      # the transaction really was distributed

    def test_conflicting_writers_serialise(self):
        system, manager = self.make(clients=2)
        outcome = {"commits": 0, "aborts": 0}

        def body(coordinator):
            for index in range(4):
                try:
                    yield from coordinator.execute({"hot": index})
                    outcome["commits"] += 1
                except TransactionAborted:
                    outcome["aborts"] += 1
        manager.coordinator("c1", system.cab("cab3")).run(body)
        manager.coordinator("c2", system.cab("cab4")).run(body)
        system.run(until=120_000_000_000)
        assert outcome["commits"] + outcome["aborts"] == 8
        assert outcome["commits"] == manager.commits
        # The store holds a committed value, not a torn one.
        assert manager.participant_for("hot").store.get("hot") is not None

    def test_aborted_transaction_leaves_no_trace(self):
        system, manager = self.make(clients=2)
        out = {}

        def holder(coordinator):
            # Prepare a txn and hold its locks by never... actually
            # execute() always resolves; instead create the conflict by
            # racing two transactions on one key.
            yield from coordinator.execute({"x": 100, "y": 100})
            out["holder"] = True

        def racer(coordinator):
            try:
                yield from coordinator.execute({"x": 200})
                out["racer"] = "committed"
            except TransactionAborted:
                out["racer"] = "aborted"
            value = yield from coordinator.read("x")
            out["x"] = value
        manager.coordinator("h", system.cab("cab3")).run(holder)
        manager.coordinator("r", system.cab("cab4")).run(racer)
        system.run(until=120_000_000_000)
        participant = manager.participant_for("x")
        assert participant.locks == {}
        assert participant.staged == {}
        assert out["x"] in (100, 200)

    def test_commit_latency_recorded(self):
        system, manager = self.make()
        manager.coordinator("c", system.cab("cab3")).run(
            lambda coord: coord.execute({"z": 1}))
        system.run(until=60_000_000_000)
        assert manager.commit_latency.count == 1
        assert manager.commit_latency.mean_us < 1_000

    def test_coordinators_of_one_manager_never_share_an_id(self):
        # Participants key their locks by transaction id: the ids come
        # from the manager, so two coordinators never draw the same one.
        system, manager = self.make(clients=2)
        ids = []

        def body(prefix):
            def run(coordinator):
                for index in range(3):
                    ids.append((yield from coordinator.execute(
                        {f"{prefix}{index}": index})))
            return run
        manager.coordinator("c1", system.cab("cab3")).run(body("a"))
        manager.coordinator("c2", system.cab("cab4")).run(body("b"))
        system.run(until=120_000_000_000)
        assert sorted(ids) == [1, 2, 3, 4, 5, 6]

    def test_same_commit_latency_when_run_again(self):
        # E24b's one-participant 2PC, built and run twice in one
        # interpreter.  The transaction id is JSON-encoded into the
        # prepare and commit bodies, so an id minted from a count shared
        # across managers grows the messages once it passes 9.
        def one_run():
            system = single_hub_system(2)
            manager = TransactionManager(system, [system.cab("cab0")])
            ids = []

            def body(coordinator):
                for index in range(6):
                    ids.append((yield from coordinator.execute(
                        {f"key0_{index}": index})))
            manager.coordinator("bench", system.cab("cab1")).run(body)
            system.run(until=120_000_000_000)
            assert manager.commits == 6
            return ids, manager.commit_latency.mean_us

        first, second = one_run(), one_run()
        assert first[0] == second[0] == [1, 2, 3, 4, 5, 6]
        assert first[1] == second[1]

    def test_needs_participants(self):
        system = single_hub_system(2)
        with pytest.raises(NectarError):
            TransactionManager(system, [])
