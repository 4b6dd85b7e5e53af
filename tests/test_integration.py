"""Cross-module integration scenarios: heavy concurrency, determinism,
mixed protocols, and fault recovery end to end."""

from dataclasses import replace

import pytest

from conftest import fixed_timer
from repro.config import NectarConfig
from repro.sim import units
from repro.topology import figure7_system, linear_system, single_hub_system


class TestAllToAll:
    def test_eight_cabs_all_to_all_datagrams(self):
        """Every CAB sends to every other CAB; nothing is lost."""
        system = single_hub_system(8)
        names = [f"cab{i}" for i in range(8)]
        received = {name: [] for name in names}
        for name in names:
            stack = system.cab(name)
            inbox = stack.create_mailbox("all")

            def rx(stack=stack, inbox=inbox, name=name):
                for _ in range(7):
                    message = yield from stack.kernel.wait(inbox.get())
                    received[name].append(message.src)
            stack.spawn(rx())
        for src in names:
            stack = system.cab(src)

            def tx(stack=stack, src=src):
                for dst in names:
                    if dst == src:
                        continue
                    yield from stack.transport.datagram.send(
                        dst, "all", size=200)
            stack.spawn(tx())
        system.run(until=10_000_000_000)
        for name in names:
            expected = sorted(n for n in names if n != name)
            assert sorted(received[name]) == expected

    def test_mixed_protocols_share_one_network(self):
        """Datagram + stream + RPC + multicast concurrently, no loss."""
        system = figure7_system()
        results = {}
        cab1, cab2 = system.cab("CAB1"), system.cab("CAB2")
        cab3, cab4 = system.cab("CAB3"), system.cab("CAB4")
        cab5 = system.cab("CAB5")
        # RPC server on CAB1
        svc = cab1.create_mailbox("svc")

        def server():
            while True:
                request = yield from cab1.kernel.wait(svc.get())
                yield from cab1.transport.rpc.respond(request, size=64)
        cab1.spawn(server())
        # Stream CAB3 -> CAB4
        stream_in = cab4.create_mailbox("stream")

        def stream_rx():
            message = yield from cab4.kernel.wait(stream_in.get())
            results["stream"] = message.size
        cab4.spawn(stream_rx())
        connection = cab3.transport.stream.connect("CAB4", "stream")
        cab3.spawn(connection.send(size=20_000))
        # Multicast CAB2 -> {CAB4, CAB5}
        for stack in (cab4, cab5):
            box = stack.create_mailbox("mc")

            def mc_rx(stack=stack, box=box):
                message = yield from stack.kernel.wait(box.get())
                results[f"mc-{stack.name}"] = message.size
            stack.spawn(mc_rx())
        from repro.hardware.frames import Payload
        payload = Payload(400, header={
            "proto": "dg", "dst_mailbox": "mc", "kind": "data",
            "msg_id": 5, "frag": 0, "nfrags": 1, "total_size": 400,
            "src": "CAB2"})
        cab2.spawn(cab2.datalink.multicast(["CAB4", "CAB5"], payload))
        # RPC client on CAB5

        def client():
            response = yield from cab5.transport.rpc.request(
                "CAB1", "svc", size=128)
            results["rpc"] = response.size
        cab5.spawn(client())
        system.run(until=60_000_000_000)
        assert results["stream"] == 20_000
        assert results["mc-CAB4"] == 400
        assert results["mc-CAB5"] == 400
        assert results["rpc"] == 64

    def test_circuit_storm_resolves(self):
        """Many concurrent circuit opens across shared links all finish."""
        system = linear_system(2, cabs_per_hub=4)
        sources = [f"cab0_{i}" for i in range(4)]
        sinks = [f"cab1_{i}" for i in range(4)]
        done = []
        for src, dst in zip(sources, sinks):
            stack = system.cab(dst)
            inbox = stack.create_mailbox("in")

            def rx(stack=stack, inbox=inbox, dst=dst):
                message = yield from stack.kernel.wait(inbox.get())
                done.append(dst)
            stack.spawn(rx())
            src_stack = system.cab(src)

            def tx(src_stack=src_stack, dst=dst):
                yield from src_stack.transport.datagram.send(
                    dst, "in", size=5_000, mode="circuit")
            src_stack.spawn(tx())
        system.run(until=60_000_000_000)
        assert sorted(done) == sorted(sinks)
        # All circuits are torn down afterwards.
        for hub_name in ("hub0", "hub1"):
            assert system.hub(hub_name).crossbar.connection_count == 0


class TestDeterminism:
    def run_production_hash(self):
        from repro.apps import ProductionSystemApp
        system = single_hub_system(5)
        app = ProductionSystemApp(
            system, [system.cab(f"cab{i}") for i in range(4)],
            max_depth=3)
        app.run(seed_count=15, until=2_000_000_000)
        return (app.tokens_processed, app.tokens_emitted,
                tuple(app.hop_latency.samples))

    def test_identical_runs_identical_results(self):
        assert self.run_production_hash() == self.run_production_hash()

    def test_seed_changes_results(self):
        first = self.run_production_hash()
        from repro.apps import ProductionSystemApp
        system = single_hub_system(5, cfg=NectarConfig(seed=777))
        app = ProductionSystemApp(
            system, [system.cab(f"cab{i}") for i in range(4)],
            max_depth=3)
        app.run(seed_count=15, until=2_000_000_000)
        assert (app.tokens_processed,
                tuple(app.hop_latency.samples)) != (first[0], first[2])


class TestFaultRecoveryEndToEnd:
    def test_reliable_stack_survives_a_bad_fiber_day(self):
        """Drops + corruption together; byte-stream and RPC both hold
        under a fixed 5 ms retransmission timer."""
        cfg = NectarConfig(seed=13)
        cfg = replace(cfg, fiber=replace(
            cfg.fiber, drop_probability=0.1, corrupt_probability=0.1))
        system = single_hub_system(3, cfg=fixed_timer(cfg, 5_000_000))
        a, b = system.cab("cab0"), system.cab("cab1")
        inbox = b.create_mailbox("data")
        svc = b.create_mailbox("svc")
        results = {"stream": []}

        def stream_rx():
            for _ in range(4):
                message = yield from b.kernel.wait(inbox.get())
                results["stream"].append(message.data)
        b.spawn(stream_rx())

        def server():
            while True:
                request = yield from b.kernel.wait(svc.get())
                yield from b.transport.rpc.respond(
                    request, data=request.data[::-1])
        b.spawn(server())
        connection = a.transport.stream.connect("cab1", "data")
        body = bytes(range(100, 200)) * 10

        def workload():
            for _ in range(4):
                yield from connection.send(data=body)
            response = yield from a.transport.rpc.request(
                "cab1", "svc", data=b"still there?")
            results["rpc"] = response.data
        a.spawn(workload())
        system.run(until=120_000_000_000)
        assert results["stream"] == [body] * 4
        assert results["rpc"] == b"?ereht llits"
        assert b.transport.counters["checksum_drops"] > 0 or \
            connection.retransmissions > 0
