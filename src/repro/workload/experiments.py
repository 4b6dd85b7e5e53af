"""The paper's headline measurements, each implemented once.

Every function builds a fresh system, drives one scenario and returns
the *simulated* metrics the paper reports (§2.3, §4).  The benchmark
suite (``benchmarks/bench_*.py``), ``python -m repro report`` and
``tests/test_paper_goals.py`` all call these — there is no second rig
for the 700 ns HUB setup, the CAB-to-CAB or the node-to-node latency.
:func:`run_collective` is also a pinned cell: ``tools/result_sweep.py
--repin`` writes its three paths' fingerprints to ``tests/data/pins.json``.
(``benchmarks/e2e/probes.py`` is the frozen benchmark's own copy, and
its layer map is why this module lives in a package: a new top-level
file under ``src/repro`` belongs to no layer it knows.)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from functools import partial
from typing import Optional

from ..config import FIBER_NS_PER_BYTE, NectarConfig
from ..hardware import (CabBoard, CommandOp, Hub, HubCommand, Packet, Payload,
                       wire_cab_to_hub)
from ..nodeiface import (NetworkDriverInterface, SharedMemoryInterface,
                        SocketInterface)
from ..sim import Simulator, units
from ..stats import ExperimentTable
from ..topology import linear_system, single_hub_system

__all__ = [
    "hop_ns",
    "hub_timing_rig",
    "measure_cab_to_cab",
    "measure_collectives",
    "measure_disjoint_pairs",
    "measure_hub_setup",
    "measure_lan_node_to_node",
    "measure_multihop",
    "measure_node_to_node",
    "measure_switching_rate",
    "measure_throughput",
    "paper_report",
    "run_collective",
    "timed_send",
]


def hub_timing_rig():
    """One bare HUB between two CAB boards, ``dst`` recording the time
    each packet head reaches it (E1/E3: fiber-level, no software)."""
    cfg = NectarConfig()
    sim = Simulator()
    hub = Hub(sim, "hub0", cfg.hub, cfg.fiber)
    src = CabBoard(sim, "src", cfg.cab, cfg.fiber)
    dst = CabBoard(sim, "dst", cfg.cab, cfg.fiber)
    wire_cab_to_hub(sim, src, hub, 0)
    wire_cab_to_hub(sim, dst, hub, 1)
    heads = []

    def sink(packet, size, head, tail):
        heads.append(head)
        dst.signal_input_drained()
        yield 0
    dst.on_receive(sink)
    src.on_receive(lambda *a: iter(()))
    return cfg, sim, hub, src, dst, heads


def hop_ns(cfg: NectarConfig) -> int:
    """Propagation plus one byte of serialisation: a head's fiber time."""
    return cfg.fiber.propagation_ns + round(FIBER_NS_PER_BYTE)


def measure_hub_setup() -> dict:
    """Connection setup + first byte through one HUB (E1: 700 ns)."""
    cfg, sim, hub, src, dst, heads = hub_timing_rig()
    src.transmit(Packet("src",
                        commands=[HubCommand(CommandOp.OPEN, "hub0", 1,
                                             origin="src")],
                        payload=Payload(1, data=b"x"), header_bytes=0))
    sim.run(until=1_000_000)
    return {"setup_ns": heads[0] - 2 * hop_ns(cfg)}


def measure_switching_rate() -> dict:
    """Controller service rate with its command queue full (E2): each of
    8 CABs opens a distinct free output port, all at t=0."""
    senders = 8
    cfg = NectarConfig()
    sim = Simulator()
    hub = Hub(sim, "hub0", cfg.hub, cfg.fiber)
    cabs = []
    for index in range(senders):
        cab = CabBoard(sim, f"cab{index}", cfg.cab, cfg.fiber)
        wire_cab_to_hub(sim, cab, hub, index)
        cab.on_receive(lambda *a: iter(()))
        cabs.append(cab)
    executed_times = []
    original = hub.controller._dispatch

    def traced(job):
        executed_times.append(sim.now)
        original(job)
    hub.controller._dispatch = traced
    for index, cab in enumerate(cabs):
        cab.transmit(Packet(cab.name, commands=[
            HubCommand(CommandOp.OPEN, "hub0", senders + index,
                       origin=cab.name)]))
    sim.run(until=10_000_000)
    gaps = [b - a for a, b in zip(executed_times, executed_times[1:])]
    connections = sum(
        1 for port in range(senders, 2 * senders)
        if hub.crossbar.owner_of(port) is not None)
    return {
        "connections": connections,
        "min_gap_ns": min(gaps),
        "saturated_gaps": gaps.count(min(gaps)),
        "rate_mconn_per_s": 1e3 / min(gaps),
    }


def timed_send(system, src, dst, size: int, protocol: str = "datagram",
               mode: str = "auto", until: int = 1_000_000_000) -> int:
    """Send one message from CAB stack ``src`` to a fresh mailbox on
    ``dst`` as a ``datagram`` or over a byte ``stream``; simulated ns
    from the send call to the receiver's wake-up."""
    inbox = dst.create_mailbox("inbox")
    state = {}

    def receiver():
        yield from dst.kernel.wait(inbox.get())
        state["t"] = system.now
    dst.spawn(receiver())
    if protocol == "stream":
        connection = src.transport.stream.connect(dst.name, "inbox")
        send = partial(connection.send, size=size)
    else:
        send = partial(src.transport.datagram.send, dst.name, "inbox",
                       size=size, mode=mode)

    def sender():
        state["t0"] = system.now
        yield from send()
    src.spawn(sender())
    system.run(until=until)
    return state["t"] - state["t0"]


def measure_cab_to_cab(size: int = 32, mode: str = "auto",
                       samples: int = 5) -> dict:
    """One-way latency between processes on two CABs (E4)."""
    system = single_hub_system(2)
    a, b = system.cab("cab0"), system.cab("cab1")
    inbox = b.create_mailbox("inbox")
    latencies = []
    state = {}

    def receiver():
        for _ in range(samples):
            yield from b.kernel.wait(inbox.get())
            latencies.append(system.now - state["t0"])

    def sender():
        for index in range(samples):
            state["t0"] = system.now
            yield from a.transport.datagram.send("cab1", "inbox",
                                                 size=size, mode=mode)
            # Quiesce between samples so latencies don't overlap.
            yield from a.kernel.sleep(200_000)
    b.spawn(receiver())
    a.spawn(sender())
    system.run(until=1_000_000_000)
    return {
        "latency_us": units.to_us(sum(latencies) / len(latencies)),
        "samples": len(latencies),
    }


def measure_throughput(size: int, mode: str = "auto",
                       cfg: Optional[NectarConfig] = None,
                       protocol: str = "datagram") -> dict:
    """One large transfer between two CABs; returns achieved Mb/s."""
    system = single_hub_system(2, cfg=cfg)
    elapsed = timed_send(system, system.cab("cab0"), system.cab("cab1"),
                         size, protocol, mode, until=60_000_000_000)
    return {
        "mbps": units.throughput_mbps(size, elapsed),
        "elapsed_us": units.to_us(elapsed),
    }


def measure_node_to_node(interface: str = "shm", size: int = 32,
                         pipeline: bool = True) -> dict:
    """One-way node-process to node-process latency (E5/E16/E17), and
    the interrupts the receiving node took for it (ablation A3)."""
    system = single_hub_system(2, with_nodes=True)
    a, b = system.cab("cab0"), system.cab("cab1")
    if interface == "shm":
        ia, ib = SharedMemoryInterface(a), SharedMemoryInterface(b)
        inbox = b.create_mailbox("inbox")
        receive = partial(ib.receive, inbox)
        send = partial(ia.send, "cab1", "inbox", size=size,
                       pipeline=pipeline)
    elif interface == "socket":
        ia, ib = SocketInterface(a), SocketInterface(b)
        inbox = b.create_mailbox("inbox")
        receive = partial(ib.receive, inbox)
        send = partial(ia.send, "cab1", "inbox", size=size)
    elif interface == "driver":
        ia, ib = NetworkDriverInterface(a), NetworkDriverInterface(b)
        ib.open_port("inbox")
        receive = partial(ib.receive, "inbox")
        send = partial(ia.send, "cab1", "inbox", size=size)
    else:
        raise ValueError(f"unknown interface {interface!r}")
    state = {}

    def receiver():
        yield from receive()
        state["t"] = system.now

    def sender():
        state["t0"] = system.now
        yield from send()
    system.node("node1").run(receiver(), "rx")
    system.node("node0").run(sender(), "tx")
    system.run(until=120_000_000_000)
    elapsed = state["t"] - state["t0"]
    return {
        "latency_us": units.to_us(elapsed),
        "mbps": units.throughput_mbps(size, elapsed),
        "rx_interrupts": system.node("node1").interrupts,
    }


def measure_disjoint_pairs(num_pairs: int, message_bytes: int = 50_000,
                           cfg: Optional[NectarConfig] = None) -> dict:
    """``num_pairs`` disjoint CAB pairs on one HUB, every source sending
    one circuit-mode message at once (E8/E25): time to the last delivery
    and the aggregate rate."""
    system = single_hub_system(2 * num_pairs, cfg=cfg)
    finish = {}

    def receiver(stack, box, key):
        yield from stack.kernel.wait(box.get())
        finish[key] = system.now

    def sender(stack, dst):
        yield from stack.transport.datagram.send(
            dst, "inbox", size=message_bytes, mode="circuit")
    for pair in range(num_pairs):
        src = system.cab(f"cab{2 * pair}")
        dst = system.cab(f"cab{2 * pair + 1}")
        dst.spawn(receiver(dst, dst.create_mailbox("inbox"), pair))
        src.spawn(sender(src, dst.name))
    system.run(until=2_000_000_000)
    if len(finish) != num_pairs:
        raise RuntimeError(f"only {len(finish)} of {num_pairs} delivered")
    elapsed = max(finish.values())
    return {"elapsed_ns": elapsed,
            "mbps": units.throughput_mbps(num_pairs * message_bytes,
                                          elapsed)}


def measure_multihop(hubs: int) -> dict:
    """Latency of a 32-byte message across a chain of ``hubs`` HUBs
    (E9)."""
    system = linear_system(hubs, cabs_per_hub=2)
    elapsed = timed_send(system, system.cab("cab0_0"),
                         system.cab(f"cab{hubs - 1}_1"), 32)
    return {"latency_us": units.to_us(elapsed), "hubs": hubs}


def measure_lan_node_to_node(size: int = 32) -> dict:
    """The Ethernet + kernel-stack baseline, same scenario as E5 (E7)."""
    from ..baseline import EthernetLan
    sim = Simulator()
    lan = EthernetLan(sim, rng=NectarConfig().rng_stream("lan"))
    a, b = lan.add_host("a"), lan.add_host("b")
    b.open_port("p")
    state = {}

    def receiver():
        yield from b.receive("p")
        state["t"] = sim.now

    def sender():
        state["t0"] = sim.now
        yield from a.send_message("b", "p", size)
    sim.process(receiver())
    sim.process(sender())
    sim.run(until=600_000_000_000)
    elapsed = state["t"] - state["t0"]
    return {
        "latency_us": units.to_us(elapsed),
        "mbps": units.throughput_mbps(size, elapsed),
    }


def run_collective(mode: str) -> tuple[int, int, dict]:
    """E-COL: ``(events, sim_ns, fingerprint)`` of one collective path
    (``hub`` offload, software ``tree``, hypercube ``exchange``): 8 ranks
    run 12 rounds of allreduce + barrier through the iPSC library while
    every other CAB aims 40 512-byte datagrams at cab0, the hotspot that
    congests software trees rooted at rank 0."""
    from ..ipsc import IpscLibrary
    from ..nectarine import NectarineRuntime
    cfg = NectarConfig(seed=1989)
    cfg = replace(cfg, collectives=replace(cfg.collectives, mode=mode))
    system = single_hub_system(8, cfg=cfg)
    ranks, rounds, noise_messages = 8, 12, 40
    library = IpscLibrary(NectarineRuntime(system),
                          [system.cab(f"cab{i}") for i in range(ranks)])
    totals: dict[int, int] = {}
    done_ns: dict[int, int] = {}

    def body(process):
        total = 0
        for round_no in range(rounds):
            total = yield from process.gisum(process.mynode() + round_no + 1)
            yield from process.gsync()
        totals[process.mynode()] = total
        done_ns[process.mynode()] = system.now

    def noise(stack):
        for _ in range(noise_messages):
            yield from stack.transport.datagram.send("cab0", "noise", size=512)

    def drain(stack, count):
        mailbox = stack.create_mailbox("noise", capacity=64)
        for _ in range(count):
            yield from stack.kernel.wait(mailbox.get())

    hot = system.cab("cab0")
    hot.spawn(drain(hot, (ranks - 1) * noise_messages), name="noise-drain")
    for index in range(1, ranks):
        stack = system.cab(f"cab{index}")
        stack.spawn(noise(stack), name=f"noise{index}")
    library.start_all(body)
    system.run()
    return system.sim.events_processed, system.now, {
        "mode": mode,
        "totals": totals,
        "done_ns": done_ns,
        "finish_ns": max(done_ns.values()),
        "hub_counters": {name: dict(hub.counters)
                         for name, hub in system.hubs.items()},
    }


def measure_collectives() -> dict:
    """E-COL: :func:`run_collective` for each path — finish time and
    result digest per mode (SHA-256 over the scenario name, the final
    clock and the fingerprint), the HUB combining unit's counters, and
    the offload's speedup over each software path."""
    runs = {mode: run_collective(mode)[1:]
            for mode in ("hub", "tree", "exchange")}
    finish_ns = {mode: fingerprint["finish_ns"]
                 for mode, (_sim_ns, fingerprint) in runs.items()}
    counters = runs["hub"][1]["hub_counters"]["hub0"]
    return {
        "finish_ns": finish_ns,
        "digests": {
            mode: hashlib.sha256(json.dumps(
                {"scenario": f"collective-{mode}", "sim_ns": sim_ns,
                 "fingerprint": fingerprint}, sort_keys=True).encode()
            ).hexdigest()
            for mode, (sim_ns, fingerprint) in runs.items()},
        "combining": {key.split(".", 1)[1]: value
                      for key, value in sorted(counters.items())
                      if key.startswith("collective.")},
        "speedup_vs_exchange": finish_ns["exchange"] / finish_ns["hub"],
        "speedup_vs_tree": finish_ns["tree"] / finish_ns["hub"],
    }


def paper_report() -> list[ExperimentTable]:
    """The §2.3/§4 headline numbers, paper versus measured — what
    ``python -m repro report`` prints."""
    setup_ns = measure_hub_setup()["setup_ns"]
    gap_ns = measure_switching_rate()["min_gap_ns"]
    hub = ExperimentTable("HUB", "switch timing (§4)")
    hub.add("connection setup + first byte", "700 ns", f"{setup_ns} ns",
            setup_ns == 700)
    hub.add("controller switching rate", "1 per 70 ns cycle",
            f"1 per {gap_ns} ns", gap_ns == 70)

    cab_us = measure_cab_to_cab()["latency_us"]
    node_us = measure_node_to_node()["latency_us"]
    latency = ExperimentTable("LAT", "process-to-process latency (§2.3)")
    latency.add("CAB to CAB (32 B)", "< 30 µs", f"{cab_us:.1f} µs",
                cab_us < 30)
    latency.add("node to node (32 B)", "< 100 µs", f"{node_us:.1f} µs",
                node_us < 100)

    one = measure_multihop(1)["latency_us"]
    four = measure_multihop(4)["latency_us"]
    per_hub = (four - one) / 3
    hops = ExperimentTable("HOPS", "multi-HUB scaling (§4 goal 3)")
    hops.add("1 HUB", "-", f"{one:.1f} µs")
    hops.add("4 HUBs", "not significantly higher", f"{four:.1f} µs",
             four < 1.5 * one)
    hops.add("per extra HUB", "~1 µs", f"{per_hub:.2f} µs", per_hub < 3)
    return [hub, latency, hops]
