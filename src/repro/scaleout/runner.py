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

Every run shape returns a :class:`~repro.scaleout.escl.ScaleoutResult`;
``result.mismatch(reference, faults)`` is the one statement of the
parity rule — digest bit-identical to the single-process run, and event
count too unless an in-simulation fault is armed — that the CLI's
``--verify``, ``benchmarks/bench_scaleout.py`` and
``tools/result_sweep.py`` all gate on: see ``docs/SCALEOUT.md``.
"""

from __future__ import annotations

import time

from ..topology.fabrics import build_system
from .escl import (ScaleoutResult, ScaleoutScenario, merge_fragments,
                   spawn_traffic)
from .supervisor import Supervisor

__all__ = ["run_partitioned", "run_single"]


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
    ``registry`` (a :class:`~repro.observe.MetricRegistry`) receives
    the recovery counters plus the per-partition round-timing breakdown
    as ``scaleout.*`` metrics when the run ends, failed or not.
    """
    if num_partitions < 2:
        return run_single(scenario, faults=faults)
    return Supervisor(
        scenario, num_partitions, faults=faults,
        max_restarts=max_restarts, hang_timeout_s=hang_timeout_s,
        backoff_base_s=backoff_base_s, snapshot_every=snapshot_every,
        batch=batch, registry=registry).run()
