"""Run shapes for E-SCL scenarios: single-process and supervised.

``run_single`` executes an E-SCL scenario in one process, exactly like
every other experiment in the repo — it is the reference every digest
is compared against.  ``run_partitioned`` shards the same scenario
across ``num_partitions`` worker processes under the crash-tolerant
:class:`~repro.scaleout.supervisor.Supervisor`.  The workers run the
conservative-lookahead protocol stated in ``docs/SCALEOUT.md`` ("The
synchronization protocol", "Grants") among themselves, each planning
the grants :mod:`repro.scaleout.planner` computes; the supervisor
restarts the run when a worker dies or hangs, and can apply fault
campaigns.  Failures past the restart budget, and workers whose plans
diverge, surface as :class:`~repro.errors.ScaleoutError` with
per-partition forensics.

Every run shape returns a :class:`~repro.scaleout.escl.ScaleoutResult`;
``result.mismatch(reference, faults)`` is the one statement of the
parity rule — digest bit-identical to the single-process run, and event
count too unless an in-simulation fault is armed — that the CLI (given
two or more partition counts), the E-SCL experiments in
``benchmarks/bench_scaleout.py`` and ``tools/result_sweep.py`` all gate
on: see ``docs/SCALEOUT.md``.
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
                    faults=None, **options) -> ScaleoutResult:
    """Run the scenario sharded across ``num_partitions`` processes.

    With fewer than two partitions this is :func:`run_single`; else the
    keywords go to the crash-tolerant :class:`Supervisor`, which owns
    them and their defaults: ``max_restarts`` run restarts charged to
    one partition before :class:`~repro.errors.ScaleoutError` carries
    the forensics, and a ``registry``
    (:class:`~repro.observe.MetricRegistry`) that receives the
    ``scaleout.*`` metrics when the run ends, failed or not.
    """
    if num_partitions < 2:
        return run_single(scenario, faults=faults)
    return Supervisor(scenario, num_partitions, faults=faults,
                      **options).run()
