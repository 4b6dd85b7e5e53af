"""Scalability tests (§2.2): adding hardware must not disturb the rest.

"Using the same hardware design, Nectar should scale up to a network of
hundreds of supercomputer-class machines."  These tests exercise large
configurations: a 4×4 mesh with 64 CABs, the 128-port VLSI HUB preset,
and the non-disruption property (traffic between existing CABs is
unaffected by plugging in new ones).
"""

from dataclasses import replace

import pytest

from repro.config import HubConfig, NectarConfig, vlsi_config
from repro.sim import units
from repro.system.builder import NectarSystem
from repro.topology import mesh_system, single_hub_system


class TestLargeMesh:
    def test_64_cabs_all_pairs_routable(self):
        system = mesh_system(4, 4, cabs_per_hub=4)
        assert len(system.cabs) == 64
        names = sorted(system.cabs)
        # Spot-check routes across the diagonal and neighbours.
        for src, dst in ((names[0], names[-1]), (names[3], names[40]),
                         (names[17], names[22])):
            route = system.router.route(src, dst)
            assert 1 <= route.hub_count <= 7

    def test_random_traffic_on_64_cabs_all_delivered(self):
        system = mesh_system(4, 4, cabs_per_hub=4)
        rng = system.cfg.rng_stream("scale-traffic")
        names = sorted(system.cabs)
        pairs = []
        receivers = rng.sample(names, 16)
        senders = rng.sample([n for n in names if n not in receivers], 16)
        delivered = []
        for index, (src, dst) in enumerate(zip(senders, receivers)):
            stack = system.cab(dst)
            inbox = stack.create_mailbox(f"in{index}")

            def rx(stack=stack, inbox=inbox):
                message = yield from stack.kernel.wait(inbox.get())
                delivered.append(message.src)
            stack.spawn(rx())
            src_stack = system.cab(src)

            def tx(src_stack=src_stack, dst=dst, index=index):
                yield from src_stack.transport.datagram.send(
                    dst, f"in{index}", size=256)
            src_stack.spawn(tx())
            pairs.append((src, dst))
        system.run(until=1_000_000_000)
        assert sorted(delivered) == sorted(src for src, _dst in pairs)

    def test_hundreds_of_ports_aggregate(self):
        system = mesh_system(4, 4, cabs_per_hub=4)
        assert system.aggregate_port_count() == 16 * 16


class TestVlsiPreset:
    def test_128_port_hub(self):
        cfg = vlsi_config()
        assert cfg.hub.num_ports == 128
        # Timing projections unchanged: only the port count differs.
        assert replace(cfg, hub=HubConfig()) == NectarConfig()

    def test_large_single_hub_system(self):
        system = single_hub_system(100, cfg=vlsi_config())
        assert len(system.cabs) == 100
        route = system.router.route("cab0", "cab99")
        assert route.hub_count == 1

    def test_vlsi_hub_carries_traffic(self):
        system = single_hub_system(64, cfg=vlsi_config())
        delivered = []
        for pair in range(16):
            src = system.cab(f"cab{2 * pair}")
            dst = system.cab(f"cab{2 * pair + 1}")
            inbox = dst.create_mailbox("in")

            def rx(dst=dst, inbox=inbox):
                message = yield from dst.kernel.wait(inbox.get())
                delivered.append(message.src)

            def tx(src=src, dst=dst):
                yield from src.transport.datagram.send(dst.name, "in",
                                                       size=128)
            dst.spawn(rx())
            src.spawn(tx())
        system.run(until=100_000_000)
        assert len(delivered) == 16


class TestNonDisruption:
    def test_adding_cabs_leaves_existing_latency_unchanged(self):
        """§2.2: add or replace nodes without disrupting existing tasks."""
        def measure(extra_cabs):
            system = NectarSystem()
            hub = system.add_hub("hub0")
            alpha = system.add_cab("alpha", hub)
            beta = system.add_cab("beta", hub)
            for index in range(extra_cabs):
                system.add_cab(f"extra{index}", hub)
            system.finalize()
            inbox = beta.create_mailbox("inbox")
            state = {}

            def rx():
                yield from beta.kernel.wait(inbox.get())
                state["t"] = system.now

            def tx():
                state["t0"] = system.now
                yield from alpha.transport.datagram.send("beta", "inbox",
                                                         size=64)
            beta.spawn(rx())
            alpha.spawn(tx())
            system.run(until=60_000_000)
            return state["t"] - state["t0"]
        assert measure(0) == measure(10)
