"""The four end-to-end workloads, built through the public APIs only.

Each workload class turns ``(seed, scale)`` into fixed inputs once, then
offers the same operations to ``run.py``:

``repetition()``
    build a fresh system, drive the whole simulated workload to
    completion untraced, and return ``(setup_s, run_s, Outcome)``;
``verify(outcome)``
    apply checks that need work outside the measured repetitions;
``reference_run()``
    ``(run_s, Outcome)`` of the untraced single-process drive a traced
    run is compared with;
``observed(until)``
    that drive with ``system.observe(trace=False)`` attached at the
    library defaults — returns ``(run_s, Outcome, counts)`` where
    ``counts`` are the exact per-layer model counts read from public
    counters (``until`` ends a run whose agenda the sampler keeps alive);
``profiled(profiler)``
    that drive, unobserved, with a ``cProfile.Profile`` enabled around
    the drive call only — returns ``(run_s, Outcome)``.

Why these four (the one-line reasons are repeated in ``BENCHMARK.json``):

* ``smallmsg-hub`` — per-message cost dominates (64-byte datagrams, one
  HUB, open loop): the workload where "fewer events per packet hop"
  must show.
* ``bulk-wire`` — per-byte cost dominates (real bytes fragmented,
  checksummed, reassembled and hashed): a per-message optimisation
  should not move it, a checksum/zero-copy one moves only it.
* ``rpc-faulted`` — timers armed and cancelled, retransmits, RTO
  estimation, breakers and reroutes under a loss + link-flap campaign:
  a datagram fast path that costs the retry path shows here as a loss.
* ``torus-p2`` — 256 HUBs sharded over two worker processes: the only
  place a scale-out exchange or partition-shape change can show.

A seed changes the *instance* (arrival times, destinations, payload
bytes, loss draws), never the *size*, so host metrics from different
seeds stay comparable.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.config import NectarConfig
from repro.errors import DatalinkError, TransportError
from repro.faults import FaultScenario, build_campaign
from repro.observe import MetricRegistry
from repro.scaleout import (ScaleoutScenario, run_partitioned, scenarios,
                            spawn_traffic)
from repro.sim import units
from repro.stats import percentile
from repro.topology import dual_link_system, single_hub_system
from repro.topology.fabrics import build_system, torus_fabric
from repro.workload import Workload

__all__ = ["WORKLOADS", "Outcome", "short_hash"]


def short_hash(value: Any) -> str:
    """SHA-256 (first 16 hex digits) over the canonical JSON of ``value``."""
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """What one drive of a workload produced, in simulated terms."""

    ops_attempted: int
    ops_failed: int
    latency_p50_us: float
    latency_p95_us: float
    goodput_mbps: float
    #: Simulated events processed — a *schedule* property, so it is kept
    #: out of :attr:`fingerprint` (event-eliding optimisations may move
    #: it without changing any result).
    events: int
    #: Simulator clock when the drive returned.
    clock_ns: int
    #: Schedule-independent result, one hashable entry per aspect.
    fingerprint: dict[str, Any] = field(default_factory=dict)
    #: Workload-specific extras for the per-layer table.
    extras: dict[str, float] = field(default_factory=dict)
    #: Why operations failed, when the workload can tell ("" if none).
    failure: str = ""
    #: Workload-private data :meth:`verify` needs (not reported).
    raw: Any = field(default=None, repr=False)

    def simulated(self) -> dict[str, float]:
        """The three gated simulated metrics."""
        return {"sim_latency_p50_us": self.latency_p50_us,
                "sim_latency_p95_us": self.latency_p95_us,
                "sim_goodput_mbps": self.goodput_mbps}

    def digests(self) -> dict[str, str]:
        """Per-aspect hashes of the fingerprint (what ``expected.json``
        pins; a mismatch names the aspects that moved)."""
        return {key: short_hash(value)
                for key, value in sorted(self.fingerprint.items())}


def _forwarding(counters_by_hub: dict[str, dict[str, int]]
                ) -> dict[str, dict[str, int]]:
    """The per-HUB counters an event-eliding change must not move."""
    keys = ("packets_forwarded", "opens_ok", "opens_refused")
    return {name: {key: counters.get(key, 0) for key in keys}
            for name, counters in sorted(counters_by_hub.items())}


def _hub_forwarding(system) -> dict[str, dict[str, int]]:
    return _forwarding({name: hub.counters
                        for name, hub in system.hubs.items()})


def _histogram_state(histogram) -> dict[str, Any]:
    return {"count": histogram.count, "total": histogram.total,
            "buckets": sorted(histogram.buckets.items())}


# ----------------------------------------------------------------------
# per-layer model counts, read from public counters and the registry
# ----------------------------------------------------------------------

def model_counts(system, observatory) -> dict[str, float]:
    """Exact simulated counts per layer for one observed run.

    Sources are the ones a user has: ``Hub.counters``, the
    ``MetricRegistry`` snapshot and the sampler's time series (maxima
    and means of sampled levels), plus the fault-injector and resilience
    counters.
    """
    values = {name: entry["value"] for name, entry
              in observatory.snapshot()["metrics"].items()}
    series = observatory.series

    def total(suffix: str, prefix: str = "cab") -> float:
        return sum(value for name, value in values.items()
                   if name.startswith(prefix) and name.endswith(suffix))

    def peak(suffix: str, prefix: str = "") -> float:
        return max((entry.maximum for name, entry in series.items()
                    if name.startswith(prefix) and name.endswith(suffix)),
                   default=0.0)

    def mean(suffix: str) -> float:
        picked = [entry.mean for name, entry in series.items()
                  if name.endswith(suffix)]
        return sum(picked) / len(picked) if picked else 0.0

    hubs = list(system.hubs.values())

    def hub_total(key: str) -> int:
        return sum(hub.counters.get(key, 0) for hub in hubs)

    opens_ok, refused = hub_total("opens_ok"), hub_total("opens_refused")
    resilience = getattr(system, "resilience", None)
    injector = getattr(system, "fault_injector", None)

    def healed(key: str) -> int:
        return resilience.counters.get(key, 0) if resilience else 0

    return {
        "hardware.hub.packets_forwarded": hub_total("packets_forwarded"),
        "hardware.hub.opens_ok": opens_ok,
        "hardware.hub.opens_refused": refused,
        "hardware.hub.open_success_ratio":
            opens_ok / (opens_ok + refused) if opens_ok + refused else 1.0,
        "hardware.hub.controller_util_max": peak(".controller.util", "hub"),
        "hardware.hub.queue_depth_max": peak(".queue_depth", "hub"),
        "hardware.fiber.packets": total(".fiber.packets"),
        "hardware.fiber.util_max": peak(".fiber.util", "cab"),
        "hardware.fiber.drops": total(".fiber.drops"),
        "hardware.cab.cpu_util_mean": mean(".cpu.util"),
        "hardware.cab.dma_busy_max": peak("_busy", "cab"),
        "datalink.packets_sent": total(".dl.packets_sent_packet_mode")
        + total(".dl.packets_sent_circuit_mode"),
        "datalink.circuit_retries": total(".dl.circuit_retries"),
        "datalink.reply_timeouts": total(".dl.reply_timeouts"),
        "transport.messages_delivered": total(".tp.messages_delivered"),
        "transport.fragments_sent": total(".tp.fragments_sent"),
        "transport.retransmits": total(".tp.retransmits"),
        "transport.checksum_drops": total(".tp.checksum_drops"),
        "transport.reassembly_expired": total(".tp.reassembly_expired"),
        "kernel.mailbox_depth_max": peak(".depth", "cab"),
        "faults.injected":
            injector.counters.get("injected", 0) if injector else 0,
        "resilience.reroutes": healed("reroutes"),
        "resilience.link_deaths": healed("link_deaths"),
        "resilience.heartbeat_timeouts": healed("heartbeat_timeouts"),
    }


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------

#: The ``scaleout.*`` per-layer metrics every traced run reports.
SCALEOUT_ROWS = ("rounds", "advances", "envelopes", "compute_s", "wait_s",
                 "exchange_s", "single_run_s", "speedup_vs_single")


class InProcessWorkload:
    """Shared repetition logic for the three single-process workloads.

    Subclasses implement :meth:`build` (topology, stack wiring, traffic
    set-up — everything before the first simulated event; returns a
    ``(system, drive)`` pair) and keep every seeded input on ``self``.
    ``drive(until)`` runs the workload to completion; ``until`` bounds a
    run whose agenda never drains because a metric sampler is attached.
    """

    name = ""
    single_cpu = False
    #: Builds averaged into one ``setup_s`` sample: single-HUB systems
    #: build in milliseconds, far inside timer and scheduler noise.
    builds_per_sample = 10

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale

    def build(self):
        raise NotImplementedError

    def repetition(self) -> tuple[float, float, Outcome]:
        setup_s = 0.0
        system = drive = None
        for _ in range(self.builds_per_sample):
            # A discarded build is cyclic garbage: collect it (untimed)
            # before the next, so that neither set-up, the drive nor the
            # peak resident set pays for builds a user would not make.
            del system, drive
            gc.collect()
            start = time.perf_counter()
            system, drive = self.build()
            setup_s += time.perf_counter() - start
        setup_s /= self.builds_per_sample
        start = time.perf_counter()
        outcome = drive(None)
        run_s = time.perf_counter() - start
        del system, drive
        gc.collect()
        return setup_s, run_s, outcome

    def warm_up(self) -> None:
        self.repetition()

    def verify(self, outcome: Outcome) -> Outcome:
        return outcome

    def scaleout_rows(self, single_run_s: float):
        """``scaleout.*`` per-layer values and notes.  In-process there
        is no exchange path, and the run is its own single-process
        reference."""
        return {**dict.fromkeys(SCALEOUT_ROWS[:6], 0.0),
                "single_run_s": single_run_s, "speedup_vs_single": 1.0}, []

    def reference_run(self) -> tuple[float, Outcome]:
        _, run_s, outcome = self.repetition()
        return run_s, outcome

    def observed(self, until: int):
        system, drive = self.build()
        observatory = system.observe(trace=False)
        gc.collect()
        start = time.perf_counter()
        outcome = drive(until)
        run_s = time.perf_counter() - start
        counts = model_counts(system, observatory)
        counts["workload.send_lag_mean_us"] = \
            outcome.extras.get("send_lag_mean_us", 0.0)
        return run_s, outcome, counts

    def profiled(self, profiler) -> tuple[float, Outcome]:
        system, drive = self.build()
        gc.collect()
        start = time.perf_counter()
        profiler.enable()
        try:
            outcome = drive(None)
        finally:
            profiler.disable()
        return time.perf_counter() - start, outcome


def _recorder_outcome(system, workload, result) -> Outcome:
    """Outcome of a :class:`repro.workload.Workload` run.

    An operation is one message (open loop) or RPC (closed loop) whose
    intended start falls inside the measurement window; it failed if the
    transport gave up on it or it had not completed by the end of drain.
    Latencies are the coordinated-omission-corrected ``response``
    distribution the repo's own ``SLORecorder`` keeps.
    """
    recorder = result.recorder
    completed = recorder.response.count
    lag_ns = recorder.response.mean - recorder.service.mean
    return Outcome(
        ops_attempted=recorder.sent,
        ops_failed=recorder.sent - completed,
        latency_p50_us=recorder.percentile_us(0.50),
        latency_p95_us=recorder.percentile_us(0.95),
        goodput_mbps=recorder.achieved_mbps,
        events=system.sim.events_processed,
        clock_ns=system.now,
        fingerprint={
            "delivered": {host.stack.name: host.received
                          for host in workload.hosts},
            "accounting": {"sent": recorder.sent,
                           "delivered": recorder.delivered,
                           "delivered_bytes": recorder.delivered_bytes,
                           "errors": recorder.errors},
            "final_ns": system.now,
            "latency_hist": {
                "response": _histogram_state(recorder.response),
                "service": _histogram_state(recorder.service)},
            "hub_counters": _hub_forwarding(system),
        },
        extras={"send_lag_mean_us": units.to_us(max(lag_ns, 0.0))})


class SmallMsgHub(InProcessWorkload):
    """12 CABs on one HUB, open-loop Poisson 64-byte datagrams."""

    name = "smallmsg-hub"
    builds_per_sample = 20

    def build(self):
        system = single_hub_system(12, cfg=NectarConfig(seed=self.seed))
        workload = Workload(
            system, pattern="uniform", arrivals="poisson", mode="open",
            message_bytes=64, offered_load=0.08,
            warmup_ns=units.ms(1),
            duration_ns=int(units.ms(55) * self.scale),
            drain_ns=units.ms(2), salt="e2e")

        def drive(until: Optional[int]) -> Outcome:
            return _recorder_outcome(system, workload, workload.run())

        return system, drive


class RpcFaulted(InProcessWorkload):
    """Closed-loop RPCs over two HUBs through loss bursts and link flaps.

    The fault *schedule* is drawn from the fixed :attr:`CAMPAIGN_SEED`
    (one 300 µs 10 %-loss burst per simulated millisecond on every CAB
    link, one 1 ms outage of the first inter-HUB link per 4 ms), and
    destinations rotate (``all-to-all``), so every ``--seed`` meets the
    same fault load and the same share of cross-HUB calls; the seed
    decides which packets a burst drops and the RTO jitter.  Sized so
    that roughly one call in ten is hit — the 95th percentile then sits
    in the retransmit tail — yet none exhausts its retry budget and no
    CAB is declared dead: heavier campaigns (40 % loss, 1.5 ms outages)
    failed 3–7 calls per run on most seeds and spread goodput by 14 %
    across seeds.  The fault-free drain outlasts the largest RTO
    (16 ms), so every call issued inside the window can complete.
    """

    name = "rpc-faulted"
    builds_per_sample = 20
    CAMPAIGN_SEED = 1989
    WARMUP_NS = units.ms(1)
    SLOT_NS = units.ms(4)
    SLOTS = 12
    DRAIN_NS = units.ms(18)
    DROP = 0.10
    BURST_NS = 300_000
    FLAP_NS = 1_000_000

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        slots = max(1, round(self.SLOTS * scale))
        self.duration_ns = slots * self.SLOT_NS
        plan = NectarConfig(seed=self.CAMPAIGN_SEED)
        end = self.WARMUP_NS + self.duration_ns
        events = list(build_campaign(
            "hub-link-flap", plan, flaps=slots, duration_ns=self.FLAP_NS,
            start_ns=self.WARMUP_NS, horizon_ns=end).events)
        for start in range(self.WARMUP_NS, end, units.ms(1)):
            events += build_campaign(
                "drop-burst", plan, bursts=1, drop=self.DROP,
                duration_ns=self.BURST_NS, start_ns=start,
                horizon_ns=start + units.ms(1)).events
        self.campaign = FaultScenario(
            "e2e-burst-flap", events,
            description="drop bursts on CAB links + inter-HUB link flaps")

    def build(self):
        system = dual_link_system(4, cfg=NectarConfig(seed=self.seed))
        system.enable_resilience()
        system.inject_faults(self.campaign)
        workload = Workload(
            system, pattern="all-to-all", arrivals="poisson", mode="closed",
            message_bytes=256, offered_load=0.2, window_depth=2,
            warmup_ns=self.WARMUP_NS, duration_ns=self.duration_ns,
            drain_ns=self.DRAIN_NS, salt="e2e")

        def drive(until: Optional[int]) -> Outcome:
            outcome = _recorder_outcome(system, workload, workload.run())
            outcome.fingerprint["faults"] = \
                dict(sorted(system.fault_injector.counters.items()))
            return outcome

        return system, drive


class BulkWire(InProcessWorkload):
    """4 CABs push real seeded bytes; receivers hash what they reassemble.

    Per sender and round: 8 × 8 KiB packet-mode messages (fragmentation
    and reassembly) and 6 × 48 KiB circuit-mode messages ("circuit
    switching must be used for larger packets", §4.2.3), each up to 3 %
    shorter, in seeded order to seeded partners.  The
    payload bytes are generated once per process from the seed — they
    are the benchmark's input, not part of ``setup_s``.
    """

    name = "bulk-wire"
    builds_per_sample = 40
    CABS = 4
    ROUND = [("packet", 8 << 10)] * 8 + [("circuit", 48 << 10)] * 6

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        rounds = max(1, round(24 * scale))
        names = [f"cab{index}" for index in range(self.CABS)]
        self.plans: dict[str, list[tuple[str, str, bytes]]] = {}
        self.expected: dict[str, list[str]] = {name: [] for name in names}
        self.total_bytes = 0
        # One schedule for all senders: at every step each sends the same
        # shape to the CAB ``shift`` places on, so destinations form a
        # permutation and no two circuits ever want the same receiver (a
        # 48 KiB circuit holds its destination for ~4 ms, far beyond the
        # datalink's retry budget).
        schedule_rng = random.Random(f"{seed}:bulk:schedule")
        schedule = []
        for _ in range(rounds):
            shape = list(self.ROUND)
            schedule_rng.shuffle(shape)
            schedule += [(mode, size - schedule_rng.randrange(size >> 5),
                          schedule_rng.randrange(1, self.CABS))
                         for mode, size in shape]
        for index, src in enumerate(names):
            rng = random.Random(f"{seed}:bulk:{index}")
            plan = []
            for mode, size, shift in schedule:
                dst = names[(index + shift) % self.CABS]
                body = rng.randbytes(size)
                plan.append((dst, mode, body))
                self.expected[dst].append(self._digest(src, body))
                self.total_bytes += size
            self.plans[src] = plan
        for digests in self.expected.values():
            digests.sort()

    @staticmethod
    def _digest(src: str, body: bytes) -> str:
        hasher = hashlib.sha256(f"{src}|{len(body)}|".encode())
        hasher.update(body)
        return hasher.hexdigest()

    def build(self):
        system = single_hub_system(self.CABS,
                                   cfg=NectarConfig(seed=self.seed))
        sim = system.sim
        received: dict[str, list[str]] = {name: [] for name in self.plans}
        latencies: list[int] = []
        errors: list[str] = []

        def sender(stack, plan):
            for dst, mode, body in plan:
                try:
                    yield from stack.transport.datagram.send(
                        dst, "sink", data=body, mode=mode,
                        meta={"sent_ns": sim.now})
                except (TransportError, DatalinkError) as exc:
                    errors.append(f"{stack.name}->{dst}: {exc!r}")

        def receiver(stack, count):
            mailbox = stack.create_mailbox("sink", capacity=64)
            mine = received[stack.name]
            for _ in range(count):
                message = yield from stack.kernel.wait(mailbox.get())
                latencies.append(sim.now - message.meta["sent_ns"])
                mine.append(self._digest(message.src, message.data))

        for name in self.plans:
            stack = system.cab(name)
            stack.spawn(receiver(stack, len(self.expected[name])),
                        name=f"{name}-sink")
        for name, plan in self.plans.items():
            stack = system.cab(name)
            stack.spawn(sender(stack, plan), name=f"{name}-src")

        def drive(until: Optional[int]) -> Outcome:
            system.run(until=until)
            attempted = sum(len(plan) for plan in self.plans.values())
            good = sum(sum((Counter(received[name])
                            & Counter(self.expected[name])).values())
                       for name in self.plans)
            delivered_bytes = self.total_bytes if good == attempted else 0
            return Outcome(
                ops_attempted=attempted,
                ops_failed=attempted - good,
                latency_p50_us=units.to_us(percentile(latencies, 0.50)),
                latency_p95_us=units.to_us(percentile(latencies, 0.95)),
                goodput_mbps=units.throughput_mbps(delivered_bytes,
                                                   sim.now),
                events=sim.events_processed,
                clock_ns=sim.now,
                fingerprint={
                    "delivered": {name: len(received[name])
                                  for name in sorted(received)},
                    "content": {name: short_hash(sorted(received[name]))
                                for name in sorted(received)},
                    "final_ns": sim.now,
                    "latency_hist": short_hash(sorted(latencies)),
                    "hub_counters": _hub_forwarding(system),
                },
                failure="; ".join(errors[:3]))

        return system, drive


# ----------------------------------------------------------------------
# the partitioned workload
# ----------------------------------------------------------------------

_REFERENCE_SNIPPET = (
    "import json, sys; from workloads import TorusP2; "
    "json.dump(TorusP2(int(sys.argv[1]), float(sys.argv[2]))"
    ".single_reference(), sys.stdout)")


class TorusP2(InProcessWorkload):
    """A 256-CAB 4×4×4×4 torus sharded over two worker processes.

    The scenario is the library's shift-permutation traffic (CAB ``i``
    sends ``messages_per_cab`` datagrams of real bytes to CAB
    ``i + n/2``); the seed picks the message size within ±8 bytes, which
    moves every simulated time but not the amount of work.  The
    scenario is registered in the ``scenarios()`` table because worker
    processes look it up there by name.

    :meth:`build` is the single-process run of the same scenario: what
    the traced run profiles and observes (a profiler cannot see forked
    workers) and what every partitioned repetition is held to.  The
    reference comes from a *sibling* subprocess: a forking parent that
    holds a built 256-HUB system makes every worker pay copy-on-write
    faults for it.  ``run.py`` fetches it after the timed repetitions,
    so the sibling's memory does not count towards ``peak_rss_mib``
    either.
    """

    name = "torus-p2"
    #: ``run.py`` pins the gated (untraced) run's process tree to one CPU
    #: (see the README: on the capture host's slow spells the unpinned
    #: run took 3.2x as long, single-process code 1.9x).
    single_cpu = True
    builds_per_sample = 1
    PARTITIONS = 2
    #: Partitioned repetitions behind the ``scaleout.*`` medians.
    TRACED_REPETITIONS = 3
    DIMS = (4, 4, 4, 4)

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        rng = random.Random(f"{seed}:torus")
        self.scenario = ScaleoutScenario(
            f"e2e-torus-256-s{seed}",
            "benchmark: 4x4x4x4 torus, 256 CABs, shift permutation",
            torus_fabric(self.DIMS),
            messages_per_cab=max(1, round(12 * scale)),
            message_bytes=504 + rng.randrange(17))
        scenarios()[self.scenario.name] = self.scenario
        self._reference: Optional[dict[str, Any]] = None

    # -- single-process side -------------------------------------------

    def build(self):
        system = build_system(self.scenario.fabric, self.scenario.config())
        traffic = spawn_traffic(self.scenario, system)

        def drive(until: Optional[int]) -> Outcome:
            system.run(until=until)
            return self._outcome(traffic.fragment(),
                                 system.sim.events_processed, system.now)

        return system, drive

    def single_reference(self) -> dict[str, Any]:
        """Run single-process, untraced; what repetitions must match."""
        _, run_s, outcome = InProcessWorkload.repetition(self)
        return {"run_s": run_s, "events": outcome.events,
                "clock_ns": outcome.clock_ns, "fragment": outcome.raw}

    def reference(self) -> dict[str, Any]:
        """:meth:`single_reference` of a sibling process (cached)."""
        if self._reference is None:
            done = subprocess.run(
                [sys.executable, "-c", _REFERENCE_SNIPPET,
                 str(self.seed), str(self.scale)],
                env={**os.environ,
                     "PYTHONPATH": os.pathsep.join(filter(None, sys.path))},
                stdout=subprocess.PIPE, check=True, timeout=170)
            self._reference = json.loads(done.stdout)
        return self._reference

    def reference_run(self) -> tuple[float, Outcome]:
        reference = self.reference()
        return reference["run_s"], self._outcome(
            reference["fragment"], reference["events"],
            reference["clock_ns"])

    # -- partitioned side ----------------------------------------------

    def warm_up(self) -> None:
        """One short partitioned run: imports, fork path, ring set-up."""
        warm = replace(self.scenario, name=self.scenario.name + "-warm",
                       messages_per_cab=min(2,
                                            self.scenario.messages_per_cab))
        scenarios()[warm.name] = warm
        run_partitioned(warm, self.PARTITIONS)

    def repetition(self, registry=None):
        result = run_partitioned(self.scenario, self.PARTITIONS,
                                 registry=registry)
        outcome = self._outcome(
            result.fingerprint, result.events, result.sim_ns,
            f"{result.restarts} worker restart(s)" if result.restarts
            else "")
        outcome.extras.update({
            "rounds": result.rounds, "advances": result.advances,
            "envelopes": result.envelopes,
            **{key: sum(values) for key, values in result.timing.items()},
        })
        return result.setup_s, result.wall_s, outcome

    def scaleout_rows(self, single_run_s: float):
        """Median exchange-path figures of a few observed repetitions.

        The speed-up is refused (``None``, with the reason) when the CPUs
        this process may use are fewer than the partitions.
        """
        reps = [self.repetition(registry=MetricRegistry())
                for _ in range(self.TRACED_REPETITIONS)]
        outcomes = [self.verify(outcome) for _, _, outcome in reps]
        for outcome in outcomes:
            if outcome.ops_failed:
                raise RuntimeError(
                    f"traced partitioned repetition failed "
                    f"{outcome.ops_failed} flows: {outcome.failure}")
        rows: dict[str, Optional[float]] = {
            key: statistics.median(o.extras[key] for o in outcomes)
            for key in SCALEOUT_ROWS[:6]}
        rows["single_run_s"] = single_run_s
        notes = []
        cpus = len(os.sched_getaffinity(0))
        if cpus < self.PARTITIONS:
            rows["speedup_vs_single"] = None
            notes.append(
                f"scaleout.speedup_vs_single not recorded: {cpus} CPU(s) "
                f"cannot run {self.PARTITIONS} partitions in parallel")
        else:
            rows["speedup_vs_single"] = single_run_s / statistics.median(
                run_s for _, run_s, _ in reps)
        return rows, notes

    def verify(self, outcome: Outcome) -> Outcome:
        """Hold a partitioned outcome to the single-process reference.

        A flow fails if its content hash differs from the reference's;
        every flow fails if the merged fingerprint or the event count
        differs (or a worker restarted during the repetition).
        """
        reference = self.reference()
        fragment = outcome.raw
        failed_all = outcome.failure
        if not failed_all and outcome.events != reference["events"]:
            failed_all = (f"{outcome.events} events partitioned, "
                          f"{reference['events']} single-process")
        if not failed_all \
                and short_hash(fragment) != short_hash(reference["fragment"]):
            failed_all = "partitioned fingerprint differs from " \
                         "single-process"
        wrong = sum(fragment["content"].get(name)
                    != reference["fragment"]["content"].get(name)
                    for name in self.scenario.fabric.cab_names)
        checked = self._outcome(fragment, outcome.events, outcome.clock_ns,
                                failed_all)
        checked.ops_failed = max(checked.ops_failed, wrong)
        checked.extras = outcome.extras
        return checked

    def _outcome(self, fragment: dict[str, Any], events: int,
                 clock_ns: int, failed_all: str = "") -> Outcome:
        """One flow per receiving CAB, completed at its ``done_ns``."""
        scenario = self.scenario
        names = scenario.fabric.cab_names
        failed = 0
        delivered_bits = 0
        for index, name in enumerate(names):
            count = fragment["delivered"].get(name, 0)
            sender = (index - len(names) // 2) % len(names)
            delivered_bits += 8 * count * scenario.sender_bytes(sender)
            failed += count != scenario.messages_per_cab \
                or name not in fragment["done_ns"]
        done = sorted(fragment["done_ns"].values())
        makespan = done[-1] if done else 0
        return Outcome(
            ops_attempted=len(names),
            ops_failed=len(names) if failed_all else failed,
            latency_p50_us=units.to_us(percentile(done, 0.50)) if done
            else 0.0,
            latency_p95_us=units.to_us(percentile(done, 0.95)) if done
            else 0.0,
            goodput_mbps=delivered_bits / makespan * 1000 if makespan
            else 0.0,
            events=events,
            clock_ns=clock_ns,
            fingerprint={
                "delivered": fragment["delivered"],
                "content": fragment["content"],
                "final_ns": makespan,
                "latency_hist": short_hash(done),
                "hub_counters": _forwarding(fragment["hub_counters"]),
            },
            failure=failed_all,
            raw=fragment)


WORKLOADS = {cls.name: cls
             for cls in (SmallMsgHub, BulkWire, RpcFaulted, TorusP2)}
