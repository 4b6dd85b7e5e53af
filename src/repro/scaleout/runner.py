"""Run shapes for E-SCL scenarios: single-process and supervised.

``run_single`` executes an E-SCL scenario in one process, exactly like
every other experiment in the repo — it is the reference every digest
is compared against.  ``run_partitioned`` shards the same scenario
across ``num_partitions`` worker processes under the crash-tolerant
coordinator in :mod:`repro.scaleout.supervisor`, which drives the
conservative-lookahead barrier protocol stated in ``docs/SCALEOUT.md``
("The synchronization protocol", "Batched windows") with the grants
:mod:`repro.scaleout.planner` computes, recovers dead or hung workers by
respawn + window-log replay, and can apply fault campaigns.  Failures
past the restart budget surface as :class:`~repro.errors.ScaleoutError`
with per-partition forensics.

The digest of a partitioned run is asserted bit-identical to the
single-process digest by ``verify`` (the CI scale-out smoke), which is
the whole protocol's correctness witness: see ``docs/SCALEOUT.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional

from ..topology.fabrics import build_system
from .escl import (ScaleoutScenario, fingerprint_digest, merge_fragments,
                   scenarios, spawn_traffic)
from .supervisor import Supervisor

__all__ = ["ScaleoutResult", "run_partitioned", "run_single", "verify"]


@dataclass
class ScaleoutResult:
    """One run's outcome: determinism digest plus throughput numbers."""

    scenario: str
    partitions: int
    events: int
    sim_ns: int
    wall_s: float
    rounds: int
    envelopes: int
    fingerprint: dict[str, Any] = field(default_factory=dict)
    #: Worker processes respawned after crash/hang/exception.
    restarts: int = 0
    #: Advance windows resent during window-log replay.
    replayed_windows: int = 0
    #: Workers SIGKILLed by chaos (``kill_worker``) campaign events.
    worker_kills: int = 0
    #: One-time startup cost — worker fork + fabric build (partitioned)
    #: or fabric build + traffic spawn (single-process).  Kept out of
    #: ``wall_s`` so ``events_per_sec`` measures steady-state work.
    setup_s: float = 0.0
    #: Advance messages actually sent (idle workers are elided per
    #: round, so this can be well below ``rounds * partitions``).
    advances: int = 0
    #: Per-partition ``{"compute_s": [...], "wait_s": [...],
    #: "exchange_s": [...], "ipc_s": [...]}`` round-timing breakdown
    #: (empty for single-process runs).
    timing: dict[str, list[float]] = field(default_factory=dict)
    #: Coordinator CPU seconds over ``wall_s`` (0 single-process); with
    #: the workers' ``compute_s`` and ``ipc_s`` it is the run's CPU.
    coordinator_cpu_s: float = 0.0

    @property
    def digest(self) -> str:
        """Bit-identity contract: equal across partition counts."""
        return fingerprint_digest(self.scenario, self.fingerprint)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def goodput_mbps(self) -> float:
        """Delivered payload bits per simulated time, in Mbit/s."""
        delivered_bits = 8 * sum(
            self.fingerprint.get("delivered", {}).get(cab, 0) * size
            for cab, size in self._receiver_sizes())
        horizon = max(self.fingerprint.get("done_ns", {}).values(),
                      default=0)
        return delivered_bits / horizon * 1000 if horizon else 0.0

    def _receiver_sizes(self):
        scenario = scenarios()[self.scenario]
        names = scenario.fabric.cab_names
        count = len(names)
        for index, name in enumerate(names):
            sender = (index - count // 2) % count
            yield name, scenario.sender_bytes(sender)

    def summary(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "partitions": self.partitions,
            "events": self.events,
            "sim_ns": self.sim_ns,
            "wall_s": round(self.wall_s, 6),
            "setup_s": round(self.setup_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "goodput_mbps": round(self.goodput_mbps, 3),
            "rounds": self.rounds,
            "advances": self.advances,
            "envelopes": self.envelopes,
            "restarts": self.restarts,
            "replayed_windows": self.replayed_windows,
            "worker_kills": self.worker_kills,
            "digest": self.digest,
        }


def run_single(scenario: ScaleoutScenario,
               faults=None) -> ScaleoutResult:
    """Run the scenario in-process; the reference for every digest.

    ``faults`` (a :class:`~repro.faults.FaultScenario`) applies the
    campaign's in-simulation events through a strict
    :class:`~repro.faults.FaultInjector`; process-level events
    (``kill_worker``) are meaningless here and silently dropped — there
    are no worker processes to kill.
    """
    setup_start = time.perf_counter()
    system = build_system(scenario.fabric, scenario.config())
    if faults is not None:
        sim_faults, _process_events = faults.split_process_events()
        if sim_faults.events:
            from ..faults.injector import FaultInjector
            FaultInjector(system, sim_faults).start()
    traffic = spawn_traffic(scenario, system)
    start = time.perf_counter()
    system.run()
    wall = time.perf_counter() - start
    fingerprint = merge_fragments([traffic.fragment()])
    return ScaleoutResult(scenario.name, 1, system.sim.events_processed,
                          system.now, wall, rounds=0, envelopes=0,
                          fingerprint=fingerprint,
                          setup_s=start - setup_start)


def run_partitioned(scenario: ScaleoutScenario, num_partitions: int, *,
                    faults=None, max_restarts: int = 2,
                    hang_timeout_s: float = 600.0,
                    backoff_base_s: float = 0.05,
                    snapshot_every: int = 0,
                    batch: int = 8, registry=None) -> ScaleoutResult:
    """Run the scenario sharded across ``num_partitions`` processes.

    Delegates to the crash-tolerant :class:`Supervisor`: workers that
    crash, hang, or get SIGKILLed by a chaos campaign are respawned and
    replayed from the window log, up to ``max_restarts`` times per
    partition, after which :class:`~repro.errors.ScaleoutError` carries
    the per-partition forensics.  ``batch`` is the budget of
    lookahead-widths granted per barrier round (1 = the classic
    window-per-round protocol); it leaves the digest bit-identical.
    ``registry`` (a
    :class:`~repro.observe.MetricRegistry`) mirrors the recovery
    counters plus the per-partition round-timing breakdown as
    ``scaleout.*`` metrics.
    """
    if num_partitions < 2:
        return run_single(scenario, faults=faults)
    supervisor = Supervisor(
        scenario, num_partitions, faults=faults,
        max_restarts=max_restarts, hang_timeout_s=hang_timeout_s,
        backoff_base_s=backoff_base_s, snapshot_every=snapshot_every,
        batch=batch, registry=registry)
    outcome = supervisor.run()
    return ScaleoutResult(
        scenario.name, num_partitions, outcome.events, outcome.sim_ns,
        outcome.wall_s, rounds=outcome.rounds,
        envelopes=outcome.envelopes,
        fingerprint=merge_fragments(outcome.fragments),
        restarts=outcome.restarts,
        replayed_windows=outcome.replayed_windows,
        worker_kills=outcome.worker_kills,
        setup_s=outcome.setup_s, advances=outcome.advances,
        timing=outcome.timing,
        coordinator_cpu_s=outcome.coordinator_cpu_s)


def verify(scenario: ScaleoutScenario,
           partition_counts: tuple[int, ...] = (2,),
           faults=None, **run_kwargs) -> ScaleoutResult:
    """Assert every partitioned digest matches the single-process one.

    Returns the single-process result (the reference).  Raises
    ``AssertionError`` on the first mismatch — this is the hard digest
    gate the CI scale-out smoke and the E-SCL benchmark both call.

    With ``faults``, both run shapes apply the same campaign and the
    digests must still match; the *event-count* gate only applies to
    clean runs, because in-sim fault driver processes spawn once per
    partition holding a matched target (vs once in the single-process
    run), so raw event totals legitimately differ under faults.
    """
    reference = run_single(scenario, faults=faults)
    sim_faulted = False
    if faults is not None:
        sim_faulted = bool(faults.split_process_events()[0].events)
    for count in partition_counts:
        result = run_partitioned(scenario, count, faults=faults,
                                 **run_kwargs)
        if result.digest != reference.digest:
            raise AssertionError(
                f"{scenario.name}: {count}-partition digest "
                f"{result.digest} != single-process {reference.digest}")
        if not sim_faulted and result.events != reference.events:
            raise AssertionError(
                f"{scenario.name}: {count}-partition run processed "
                f"{result.events} events, single-process "
                f"{reference.events}")
    return reference
