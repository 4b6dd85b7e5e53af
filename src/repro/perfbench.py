"""Wall-clock performance harness for the discrete-event hot path.

Every experiment in this reproduction runs through the pure-Python event
loop in :mod:`repro.sim`, so the simulator's own throughput (simulated
events per wall-clock second) is a first-class deliverable.  This module
defines a small set of **fixed-seed macro scenarios** — a hotspot
workload, a fault-injection campaign, a resilience link-flap, and an
engine-only timeout storm — and measures each one's events/sec and
wall-clock time.  Results are written to ``BENCH_engine.json`` so the
repo accumulates a performance trajectory over time.

Two properties make the numbers trustworthy:

* **Determinism** — each scenario is seeded and returns a
  ``fingerprint`` (final clock, delivery counters) whose SHA-256
  ``result_digest`` must be identical run-to-run, engine-to-engine and
  change-to-change (``tests/data/perfbench_result_digests.json`` pins
  all of them).  The agenda-entry count ``events`` is reported beside
  it, not hashed: it belongs to the schedule, so it must repeat
  run-to-run but may fall when a change elides hand-off events.  The
  CI perf-smoke job runs every scenario twice and compares both;
  :mod:`tests.test_perfbench` compares full traced timelines against
  checked-in pre-optimization captures.
* **Report-only thresholds** — wall-clock numbers are recorded, never
  hard-gated, so shared-runner noise cannot make CI flaky.

Run from the command line via ``python -m repro bench``; compare two
result files with ``python tools/perf_report.py --compare old.json
new.json`` — the one comparator, and the one CI gates on.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .config import NectarConfig
from .sim import Simulator, units

__all__ = [
    "BenchResult",
    "SCENARIOS",
    "Scenario",
    "capture_timeline",
    "host_block",
    "run_scenario",
    "run_suite",
    "write_results",
]

SEED = 1989

#: Schema tag written into every results file.
SCHEMA = "nectar-bench-engine/1"


@dataclass
class BenchResult:
    """One scenario's measurement."""

    scenario: str
    events: int
    sim_ns: int
    wall_s: float
    fingerprint: dict[str, Any] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def result_digest(self) -> str:
        """SHA-256 over what the scenario computed: final clock and
        fingerprint.  ``events`` is reported beside it, not hashed — it
        is a property of the schedule, which an event-eliding change may
        move without changing any result."""
        payload = json.dumps(
            {"scenario": self.scenario, "sim_ns": self.sim_ns,
             "fingerprint": self.fingerprint},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary(self) -> dict[str, Any]:
        return {
            "events": self.events,
            "sim_ns": self.sim_ns,
            "wall_s": round(self.wall_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "result_digest": self.result_digest,
            "fingerprint": self.fingerprint,
        }


@dataclass(frozen=True)
class Scenario:
    """A named, seeded scenario the harness can run."""

    name: str
    description: str
    build: Callable[[bool], "tuple[Any, Callable[[], dict]]"]

    def run(self) -> BenchResult:
        """Execute once, untraced, timing only the simulation drive."""
        system, drive = self.build(False)
        sim = system.sim if hasattr(system, "sim") else system
        start = time.perf_counter()
        fingerprint = drive()
        wall = time.perf_counter() - start
        return BenchResult(self.name, sim.events_processed, sim.now,
                           wall, fingerprint)


# ----------------------------------------------------------------------
# scenario definitions (fixed seed, deterministic)
# ----------------------------------------------------------------------

def _hub_counters(system) -> dict[str, dict[str, int]]:
    return {name: dict(sorted(hub.counters.items()))
            for name, hub in sorted(system.hubs.items())}


def _workload_fingerprint(system, result) -> dict[str, Any]:
    recorder = result.recorder
    return {
        "sent": recorder.sent,
        "delivered": recorder.delivered,
        "errors": recorder.errors,
        "final_now": system.now,
        "hub_counters": _hub_counters(system),
    }


def _build_hotspot(trace: bool):
    from .topology import single_hub_system
    from .workload import Workload
    system = single_hub_system(6, cfg=NectarConfig(seed=SEED))
    if trace:
        system.tracer.enable()
    workload = Workload(system, pattern="hotspot", arrivals="poisson",
                        mode="open", message_bytes=512, offered_load=0.35,
                        warmup_ns=units.ms(0.5), duration_ns=units.ms(3),
                        drain_ns=units.ms(1), salt="bench")

    def drive() -> dict[str, Any]:
        result = workload.run()
        return _workload_fingerprint(system, result)

    return system, drive


def _build_fault_campaign(trace: bool):
    from .faults import build_campaign
    from .topology import single_hub_system
    from .workload import Workload
    cfg = NectarConfig(seed=SEED)
    system = single_hub_system(4, cfg=cfg)
    if trace:
        system.tracer.enable()
    system.inject_faults(build_campaign("drop-burst", cfg))
    workload = Workload(system, pattern="uniform", arrivals="poisson",
                        mode="closed", message_bytes=512, offered_load=0.2,
                        window_depth=2, warmup_ns=units.ms(1),
                        duration_ns=units.ms(5), drain_ns=units.ms(2),
                        salt="bench")

    def drive() -> dict[str, Any]:
        result = workload.run()
        fingerprint = _workload_fingerprint(system, result)
        fingerprint["faults_injected"] = \
            system.fault_injector.counters["injected"]
        return fingerprint

    return system, drive


def _build_resilience_flap(trace: bool):
    from .faults import build_campaign
    from .topology import dual_link_system
    from .workload import Workload
    cfg = NectarConfig(seed=SEED)
    system = dual_link_system(3, cfg=cfg)
    if trace:
        system.tracer.enable()
    system.enable_resilience()
    warmup, duration = units.ms(1), units.ms(4)
    system.inject_faults(build_campaign(
        "hub-link-flap", cfg, start_ns=warmup,
        horizon_ns=warmup + duration))
    workload = Workload(system, pattern="uniform", arrivals="poisson",
                        mode="open", message_bytes=512, offered_load=0.2,
                        warmup_ns=warmup, duration_ns=duration,
                        drain_ns=units.ms(2), salt="bench")

    def drive() -> dict[str, Any]:
        result = workload.run()
        fingerprint = _workload_fingerprint(system, result)
        fingerprint["reroutes"] = \
            system.resilience.counters.get("reroutes", 0)
        return fingerprint

    return system, drive


def _build_wire_integrity(trace: bool):
    """Macro scenario for the wire layer: real bytes end to end.

    Every message carries actual data, so the send side pays
    fragmentation and Fletcher-16 sealing and the receive side pays
    verification and reassembly — the paths the closed-form checksum,
    memoized :meth:`Payload.seal`, and memoryview slicing optimize.
    Receivers hash the reassembled bytes; the digest of those hashes is
    part of the fingerprint, so a single corrupted or misordered byte
    anywhere in the pipeline fails the determinism check.
    """
    import random as _random

    from .topology import single_hub_system
    system = single_hub_system(4, cfg=NectarConfig(seed=SEED))
    if trace:
        system.tracer.enable()
    sim = system.sim
    names = sorted(system.cabs)
    #: Per sender: packet-mode messages exercise fragmentation and
    #: reassembly; circuit-mode messages carry one large checksummed
    #: payload each ("circuit switching must be used for larger
    #: packets", §4.2.3).
    shape = [("packet", 8192)] * 8 + [("circuit", 49152)] * 6
    expected = {name: 0 for name in names}
    plans = {}
    for index, src in enumerate(names):
        rng = _random.Random((SEED << 4) | index)
        plan = []
        for seq, (mode, size) in enumerate(shape):
            dst = names[(index + 1 + seq % (len(names) - 1)) % len(names)]
            plan.append((dst, mode, rng.randbytes(size)))
            expected[dst] += 1
        plans[src] = plan
    received: dict[str, str] = {}

    def sender(stack, plan):
        for dst, mode, body in plan:
            yield from stack.transport.datagram.send(
                dst, "sink", data=body, mode=mode)

    def receiver(stack, count):
        mailbox = stack.create_mailbox("sink", capacity=64)
        digest = hashlib.sha256()
        for _ in range(count):
            message = yield from stack.kernel.wait(mailbox.get())
            digest.update(message.src.encode())
            digest.update(message.data)
        received[stack.name] = digest.hexdigest()

    def drive() -> dict[str, Any]:
        for name in names:
            stack = system.cabs[name]
            stack.spawn(receiver(stack, expected[name]),
                        name=f"{name}-sink")
        for name in names:
            stack = system.cabs[name]
            stack.spawn(sender(stack, plans[name]), name=f"{name}-src")
        system.run()
        return {
            "final_now": sim.now,
            "delivered": dict(sorted(received.items())),
            "hub_counters": _hub_counters(system),
        }

    return system, drive


def _build_timeout_storm(trace: bool):
    """Engine-only scenario: coroutine fan-out of short timeouts.

    No hardware model at all — this isolates the agenda, Timeout, and
    process-resume machinery the macro scenarios sit on.
    """
    sim = Simulator()
    nprocs, steps = 300, 150

    def worker(index: int):
        for step in range(steps):
            yield sim.timeout((index * 7 + step * 3) % 50 + 1)
        return index

    def drive() -> dict[str, Any]:
        for index in range(nprocs):
            sim.process(worker(index), name=f"storm{index}")
        sim.run()
        return {"final_now": sim.now}

    return sim, drive


def _build_trace_disabled(trace: bool):
    """Micro scenario for the disabled-tracing hot path.

    A HUB's ``count()`` runs once per command/packet hop; with tracing
    disabled it must cost one attribute check, not a ``Tracer.record``
    call per event.  This scenario hammers exactly that path.
    """
    from .hardware import Hub
    from .sim import Tracer
    cfg = NectarConfig(seed=SEED)
    sim = Simulator()
    tracer = Tracer(sim, enabled=False)
    hub = Hub(sim, "hub0", cfg.hub, cfg.fiber, tracer=tracer)
    iterations = 200_000

    def drive() -> dict[str, Any]:
        count = hub.count
        for _ in range(iterations):
            count("bench_probe")
        # Report iterations as "events" so events/sec == emissions/sec.
        sim.events_processed += iterations
        return {"emissions": iterations,
                "counter": hub.counters["bench_probe"],
                "records": len(tracer.records)}

    return sim, drive


def _build_collective(mode: str):
    """E-COL scenario factory: collectives under hotspot contention.

    Eight ranks run ``rounds`` of allreduce + barrier through the iPSC
    library while every other CAB hammers cab0 with 512-byte datagrams —
    the hotspot pattern that congests software trees rooted at rank 0.
    One scenario per execution path (``hub`` offload, software ``tree``,
    hypercube ``exchange``) so ``tools/perf_report.py`` and the E-COL
    benchmark can compare completion latency at identical offered noise.
    """
    def build(trace: bool):
        from dataclasses import replace

        from .ipsc import IpscLibrary
        from .nectarine import NectarineRuntime
        from .topology import single_hub_system
        cfg = NectarConfig(seed=SEED)
        cfg = cfg.with_overrides(
            collectives=replace(cfg.collectives, mode=mode))
        system = single_hub_system(8, cfg=cfg)
        if trace:
            system.tracer.enable()
        runtime = NectarineRuntime(system)
        ranks = 8
        rounds = 12
        noise_messages = 40
        library = IpscLibrary(
            runtime, [system.cab(f"cab{i}") for i in range(ranks)])
        totals: dict[int, int] = {}
        done_ns: dict[int, int] = {}

        def body(process):
            total = 0
            for round_no in range(rounds):
                total = yield from process.gisum(
                    process.mynode() + round_no + 1)
                yield from process.gsync()
            totals[process.mynode()] = total
            done_ns[process.mynode()] = system.now

        def noise(stack):
            for _ in range(noise_messages):
                yield from stack.transport.datagram.send(
                    "cab0", "noise", size=512)

        def drain(stack, count):
            mailbox = stack.create_mailbox("noise", capacity=64)
            for _ in range(count):
                yield from stack.kernel.wait(mailbox.get())

        def drive() -> dict[str, Any]:
            hot = system.cab("cab0")
            hot.spawn(drain(hot, (ranks - 1) * noise_messages),
                      name="noise-drain")
            for index in range(1, ranks):
                stack = system.cab(f"cab{index}")
                stack.spawn(noise(stack), name=f"noise{index}")
            library.start_all(body)
            system.run()
            return {
                "mode": mode,
                "totals": dict(sorted(totals.items())),
                "done_ns": dict(sorted(done_ns.items())),
                "finish_ns": max(done_ns.values()),
                "hub_counters": _hub_counters(system),
            }

        return system, drive

    return build


def _build_scaleout(scenario_name: str):
    """E-SCL scenario factory: large-fabric shift-permutation traffic.

    Runs the scale-out workload single-process so the perf harness
    tracks the same fabrics the partitioned runs shard; the partitioned
    digests are asserted against these runs by ``python -m repro
    scaleout --partitions 1,2,4`` and the CI scale-out smoke.
    """
    def build(trace: bool):
        from .scaleout import scenarios as scaleout_scenarios
        from .scaleout import spawn_traffic
        from .topology.fabrics import build_system
        scenario = scaleout_scenarios()[scenario_name]
        system = build_system(scenario.fabric, scenario.config())
        if trace:
            system.tracer.enable()
        traffic = spawn_traffic(scenario, system)

        def drive() -> dict[str, Any]:
            system.run()
            return traffic.fragment()

        return system, drive

    return build


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario("hotspot", "open-loop hotspot workload, 6 CABs, 3 ms",
                 _build_hotspot),
        Scenario("fault-campaign",
                 "closed-loop RPCs through a drop-burst campaign",
                 _build_fault_campaign),
        Scenario("resilience-flap",
                 "self-healing dual-link system under hub-link flaps",
                 _build_resilience_flap),
        Scenario("wire-integrity",
                 "64 x 8 KB real-byte messages: fragment, checksum, "
                 "reassemble, verify",
                 _build_wire_integrity),
        Scenario("timeout-storm",
                 "engine-only: 300 processes x 150 chained timeouts",
                 _build_timeout_storm),
        Scenario("trace-disabled",
                 "micro: per-event cost of disabled tracing",
                 _build_trace_disabled),
        Scenario("collective-hub",
                 "E-COL: 8-rank allreduce+barrier rounds, HUB-offloaded, "
                 "under hotspot noise",
                 _build_collective("hub")),
        Scenario("collective-tree",
                 "E-COL: 8-rank allreduce+barrier rounds, software k-ary "
                 "tree, under hotspot noise",
                 _build_collective("tree")),
        Scenario("collective-exchange",
                 "E-COL: 8-rank allreduce+barrier rounds, hypercube "
                 "dimension exchange, under hotspot noise",
                 _build_collective("exchange")),
        Scenario("scaleout-torus-64",
                 "E-SCL: 64-CAB 4D torus, shift-permutation datagrams "
                 "(single-process reference for partitioned digests)",
                 _build_scaleout("escl-torus-64")),
        Scenario("scaleout-torus-256",
                 "E-SCL: 256-CAB 4x4x4x4 torus, shift-permutation "
                 "datagrams",
                 _build_scaleout("escl-torus-256")),
    )
}

#: The scenarios CI's perf-smoke job runs (kept quick and stable).
SMOKE_SCENARIOS = ("hotspot", "timeout-storm")


def run_scenario(name: str, repeat: int = 1) -> BenchResult:
    """Run one scenario ``repeat`` times; keep the fastest wall clock.

    Result digest and event count must be identical across repeats — a
    mismatch means the scenario is not deterministic and the measurement
    is invalid.
    """
    scenario = SCENARIOS[name]
    best: Optional[BenchResult] = None
    for _ in range(max(1, repeat)):
        result = scenario.run()
        if best is not None and (result.result_digest, result.events) \
                != (best.result_digest, best.events):
            raise RuntimeError(
                f"scenario {name!r} is not deterministic: "
                f"{result.result_digest} / {result.events} events != "
                f"{best.result_digest} / {best.events} events")
        if best is None or result.wall_s < best.wall_s:
            best = result
    assert best is not None
    return best


def capture_timeline(name: str) -> list[tuple[int, str, str]]:
    """Run a scenario traced; return its ``(time, source, kind)`` timeline.

    This is the determinism contract's strongest witness: the full
    interleaving of every traced hardware/fault event.  Identity-bearing
    fields (packet ids) are excluded so captures survive process reuse.
    """
    scenario = SCENARIOS[name]
    system, drive = scenario.build(True)
    drive()
    tracer = getattr(system, "tracer", None)
    if tracer is None:
        return []
    return [(record.time, record.source, record.kind)
            for record in tracer.records]


def run_suite(names: Optional[list[str]] = None,
              repeat: int = 1) -> dict[str, dict[str, Any]]:
    """Run the named scenarios (default: all) and summarize."""
    results = {}
    for name in names or list(SCENARIOS):
        results[name] = run_scenario(name, repeat=repeat).summary()
    return results


def host_block() -> dict[str, Any]:
    """Where a wall-clock reading was taken (readings from different
    hosts are not comparable); ``cpus`` is affinity-aware where the OS
    tells."""
    return {
        "cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def write_results(path: str, results: dict[str, dict[str, Any]],
                  label: str, baseline: Optional[dict] = None) -> dict:
    """Write a ``BENCH_engine.json`` document (merging a baseline run).

    ``baseline`` is an earlier document (e.g. the pre-optimization
    capture) whose runs are preserved so the file carries the full
    before/after trajectory.
    """
    document: dict[str, Any] = {"schema": SCHEMA, "seed": SEED, "runs": {}}
    if baseline and baseline.get("schema") == SCHEMA:
        document["runs"].update(baseline.get("runs", {}))
    document["runs"][label] = {
        "host": host_block(),
        "scenarios": {name: results[name] for name in sorted(results)},
        "descriptions": {name: SCENARIOS[name].description
                         for name in sorted(results)},
    }
    with open(path, "w", encoding="utf-8") as handle:
        # Runs stay in capture order (oldest first) — tools/perf_report.py
        # reads "last run over first" as the before/after speedup.
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return document
