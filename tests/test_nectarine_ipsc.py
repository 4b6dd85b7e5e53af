"""Integration tests for Nectarine (§6.3) and the iPSC library (§7)."""

import pytest

from repro.errors import NectarineError
from repro.ipsc import ANY_TYPE, IpscLibrary
from repro.nectarine import Buffer, NectarineRuntime
from repro.topology import single_hub_system


class TestNectarineTasks:
    def test_cab_task_roundtrip(self):
        system = single_hub_system(4)
        runtime = NectarineRuntime(system)
        alpha = runtime.create_task("alpha", system.cab("cab0"))
        beta = runtime.create_task("beta", system.cab("cab1"))
        out = {}

        def beta_body(task):
            message = yield from task.receive()
            out["data"] = message.data

        def alpha_body(task):
            yield from task.send(beta, b"task to task")
        beta.start(beta_body)
        alpha.start(alpha_body)
        system.run(until=100_000_000)
        assert out["data"] == b"task to task"

    def test_node_task_uses_shared_memory(self):
        system = single_hub_system(4, with_nodes=True)
        runtime = NectarineRuntime(system)
        alpha = runtime.create_task("alpha", system.node("node0"))
        beta = runtime.create_task("beta", system.node("node1"))
        out = {}

        def beta_body(task):
            message = yield from task.receive()
            out["size"] = message.size

        def alpha_body(task):
            yield from task.send(beta, 2048)
        beta.start(beta_body)
        alpha.start(alpha_body)
        system.run(until=1_000_000_000)
        assert out["size"] == 2048
        assert system.node("node0").syscalls == 0

    def test_same_cab_tasks_communicate_locally(self):
        system = single_hub_system(2)
        runtime = NectarineRuntime(system)
        one = runtime.create_task("one", system.cab("cab0"))
        two = runtime.create_task("two", system.cab("cab0"))
        out = {}

        def two_body(task):
            message = yield from task.receive()
            out["data"] = message.data

        def one_body(task):
            yield from task.send(two, b"local")
        two.start(two_body)
        one.start(one_body)
        system.run(until=100_000_000)
        assert out["data"] == b"local"
        counters = system.cab("cab0").transport.counters
        assert counters["local_deliveries"] == 1

    def test_stream_protocol_between_tasks(self):
        system = single_hub_system(4)
        runtime = NectarineRuntime(system)
        src = runtime.create_task("src", system.cab("cab0"))
        dst = runtime.create_task("dst", system.cab("cab1"))
        out = {}

        def dst_body(task):
            message = yield from task.receive()
            out["size"] = message.size

        def src_body(task):
            yield from task.send(dst, 10_000, protocol="stream")
        dst.start(dst_body)
        src.start(src_body)
        system.run(until=1_000_000_000)
        assert out["size"] == 10_000

    def test_rpc_between_tasks(self):
        system = single_hub_system(4)
        runtime = NectarineRuntime(system)
        server = runtime.create_task("server", system.cab("cab0"))
        client = runtime.create_task("client", system.cab("cab1"))
        out = {}

        def server_body(task):
            request = yield from task.receive()
            yield from task.respond(request, request.data.upper())

        def client_body(task):
            response = yield from task.request(server, b"shout")
            out["data"] = response.data
        server.start(server_body)
        client.start(client_body)
        system.run(until=1_000_000_000)
        assert out["data"] == b"SHOUT"

    def test_duplicate_task_names_rejected(self):
        system = single_hub_system(2)
        runtime = NectarineRuntime(system)
        runtime.create_task("t", system.cab("cab0"))
        with pytest.raises(NectarineError):
            runtime.create_task("t", system.cab("cab1"))

    def test_buffers_allocate_cab_memory(self):
        system = single_hub_system(2)
        runtime = NectarineRuntime(system)
        stack = system.cab("cab0")
        before = stack.board.data_memory.allocated_bytes
        buffer = runtime.alloc_buffer(stack, 8192)
        assert stack.board.data_memory.allocated_bytes == before + 8192
        buffer.release()
        assert stack.board.data_memory.allocated_bytes == before

    def test_buffer_fill_validates_size(self):
        system = single_hub_system(2)
        runtime = NectarineRuntime(system)
        buffer = runtime.alloc_buffer(system.cab("cab0"), 4)
        with pytest.raises(NectarineError):
            buffer.fill(b"too long for four")
        buffer.fill(b"four")
        assert buffer.data == b"four"

    def test_bad_send_type_rejected(self):
        system = single_hub_system(2)
        runtime = NectarineRuntime(system)
        one = runtime.create_task("one", system.cab("cab0"))
        two = runtime.create_task("two", system.cab("cab1"))
        with pytest.raises(NectarineError):
            next(one.send(two, 3.14))


class TestIpsc:
    def make_library(self, ranks=4):
        system = single_hub_system(max(ranks, 2))
        runtime = NectarineRuntime(system)
        library = IpscLibrary(runtime,
                              [system.cab(f"cab{i}") for i in range(ranks)])
        return system, library

    def test_identity(self):
        system, library = self.make_library(4)
        process = library.process(2)
        assert process.mynode() == 2
        assert process.numnodes() == 4

    def test_csend_crecv_typed(self):
        system, library = self.make_library(2)
        out = {}

        def rank0(p):
            yield from p.csend(5, b"typed hello", 1)

        def rank1(p):
            message = yield from p.crecv(5)
            out["data"] = message.data
            out["src"] = p.infonode(message)
            out["type"] = p.infotype(message)
        library.start(0, rank0)
        library.start(1, rank1)
        system.run(until=100_000_000)
        assert out == {"data": b"typed hello", "src": 0, "type": 5}

    def test_crecv_wildcard(self):
        system, library = self.make_library(2)
        out = {}

        def rank0(p):
            yield from p.csend(9, b"any", 1)

        def rank1(p):
            message = yield from p.crecv(ANY_TYPE)
            out["type"] = p.infotype(message)
        library.start(0, rank0)
        library.start(1, rank1)
        system.run(until=100_000_000)
        assert out["type"] == 9

    def test_type_selection_out_of_order(self):
        """crecv(type) must skip earlier messages of other types."""
        system, library = self.make_library(2)
        out = {"order": []}

        def rank0(p):
            yield from p.csend(1, b"first", 1)
            yield from p.csend(2, b"second", 1)

        def rank1(p):
            message = yield from p.crecv(2)
            out["order"].append(message.data)
            message = yield from p.crecv(1)
            out["order"].append(message.data)
        library.start(0, rank0)
        library.start(1, rank1)
        system.run(until=200_000_000)
        assert out["order"] == [b"second", b"first"]

    def test_gisum(self):
        system, library = self.make_library(4)
        totals = {}

        def body(p):
            total = yield from p.gisum(p.mynode() + 1)
            totals[p.mynode()] = total
        library.start_all(body)
        system.run(until=1_000_000_000)
        assert totals == {0: 10, 1: 10, 2: 10, 3: 10}

    def test_gcol(self):
        system, library = self.make_library(4)
        collected = {}

        def body(p):
            result = yield from p.gcol(bytes([p.mynode() * 10]))
            collected[p.mynode()] = result
        library.start_all(body)
        system.run(until=1_000_000_000)
        expected = [bytes([0]), bytes([10]), bytes([20]), bytes([30])]
        assert all(result == expected for result in collected.values())

    def test_gsync_barrier(self):
        system, library = self.make_library(4)
        after = {}

        def body(p):
            if p.mynode() == 0:
                yield from p.task.location.kernel.sleep(500_000)
            yield from p.gsync()
            after[p.mynode()] = system.now
        library.start_all(body)
        system.run(until=1_000_000_000)
        # Nobody leaves the barrier before the slowest rank arrived.
        assert min(after.values()) >= 500_000

    @pytest.mark.parametrize("ranks", [3, 5, 6])
    def test_global_ops_work_for_any_rank_count(self, ranks):
        """Non-power-of-two groups ride the collective tree (no more
        NectarineError from _check_power_of_two)."""
        system, library = self.make_library(ranks)
        totals = {}
        collected = {}

        def body(p):
            total = yield from p.gisum(p.mynode() + 1)
            totals[p.mynode()] = total
            parts = yield from p.gcol(bytes([p.mynode()]))
            collected[p.mynode()] = parts
            yield from p.gsync()
        library.start_all(body)
        system.run(until=2_000_000_000)
        expected_total = ranks * (ranks + 1) // 2
        assert totals == {rank: expected_total for rank in range(ranks)}
        expected_parts = [bytes([rank]) for rank in range(ranks)]
        assert all(parts == expected_parts
                   for parts in collected.values())

    @pytest.mark.parametrize("mode", ["tree", "exchange"])
    def test_gisum_software_modes_agree(self, mode):
        from dataclasses import replace
        from repro.config import NectarConfig
        cfg = NectarConfig()
        cfg = replace(cfg, collectives=replace(cfg.collectives, mode=mode))
        system = single_hub_system(4, cfg=cfg)
        runtime = NectarineRuntime(system)
        library = IpscLibrary(
            runtime, [system.cab(f"cab{i}") for i in range(4)])
        totals = {}

        def body(p):
            total = yield from p.gisum(p.mynode() + 1)
            totals[p.mynode()] = total
        library.start_all(body)
        system.run(until=1_000_000_000)
        assert totals == {0: 10, 1: 10, 2: 10, 3: 10}

    def test_cprobe(self):
        system, library = self.make_library(2)
        probes = {}

        def rank0(p):
            yield from p.csend(3, b"probe me", 1)

        def rank1(p):
            yield from p.task.location.kernel.sleep(1_000_000)
            probes["hit"] = p.cprobe(3)
            probes["miss"] = p.cprobe(4)
            yield from p.crecv(3)
        library.start(0, rank0)
        library.start(1, rank1)
        system.run(until=200_000_000)
        assert probes == {"hit": True, "miss": False}

    def test_bad_rank_rejected(self):
        system, library = self.make_library(2)
        with pytest.raises(NectarineError):
            library.process(7)


class TestBufferPlacement:
    """§6.3: "whether a message is allocated in CAB or node memory
    influences how efficiently the message can be built and how fast it
    can be sent"."""

    def measure(self, place_in_cab, size=32_000):
        system = single_hub_system(4, with_nodes=True)
        runtime = NectarineRuntime(system)
        sender = runtime.create_task("sender", system.node("node0"))
        receiver = runtime.create_task("receiver", system.cab("cab1"))
        location = system.cab("cab0") if place_in_cab \
            else system.node("node0")
        buffer = runtime.alloc_buffer(location, size)
        out = {}

        def rx(task):
            message = yield from task.receive()
            out["t"] = system.now
            out["size"] = message.size

        def tx(task):
            out["t0"] = system.now
            yield from task.send(receiver, buffer)
        receiver.start(rx)
        sender.start(tx)
        system.run(until=120_000_000_000)
        assert out["size"] == size
        return out["t"] - out["t0"]

    def test_cab_memory_buffer_sends_faster(self):
        cab_placed = self.measure(place_in_cab=True)
        node_placed = self.measure(place_in_cab=False)
        # The node-memory buffer must cross VME (10 MB/s) first.
        assert cab_placed < node_placed

    def test_node_buffer_cost_is_vme_bound(self):
        from repro.sim import units
        size = 32_000
        node_placed = self.measure(place_in_cab=False, size=size)
        vme_time = units.transfer_time(
            size, units.megabytes_per_second(10.0))
        assert node_placed > vme_time          # at least the VME copy
