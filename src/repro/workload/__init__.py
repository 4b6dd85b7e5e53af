"""Synthetic traffic generation and load testing for Nectar systems.

The workload subsystem turns the faithful hardware/protocol model into a
load-testing rig: traffic **patterns** (who talks to whom), **arrival
processes** (when), **generators** (open loop, closed loop) running as
CAB kernel threads over the real transport stack, **SLO recorders**
(p50/p99/p999 with coordinated-omission accounting) and a **sweep
driver** that steps offered load to find the saturation knee.

Quickstart::

    from repro.topology import single_hub_system
    from repro.workload import LoadSweep, Workload

    result = Workload(single_hub_system(8), pattern="hotspot",
                      offered_load=0.3).run()
    print(result.achieved_mbps, result.p_us(0.99))

    sweep = LoadSweep(lambda: single_hub_system(8),
                      loads=[0.1, 0.2, 0.4, 0.6, 0.8]).run()
    print(sweep.knee().offered_load)

Or from the command line: ``python -m repro workload --pattern hotspot``.

The unloaded counterpart — the paper's headline one-message probes
(700 ns HUB setup, CAB-to-CAB, node-to-node), each implemented once —
is :mod:`repro.workload.experiments` (imported directly, not from here).
"""

from .arrivals import (ARRIVALS, ArrivalProcess, BurstyArrivals,
                       DeterministicArrivals, PoissonArrivals, make_arrivals)
from .driver import LoadSweep, SweepPoint, SweepResult
from .generators import (SERVICE_MAILBOX, SINK_MAILBOX, ClosedLoopGenerator,
                         OpenLoopGenerator, Workload, WorkloadHost,
                         WorkloadResult)
from .patterns import (PATTERNS, AllToAll, Hotspot, Permutation,
                       TrafficPattern, Transpose, UniformRandom, make_pattern)
from .slo import SLORecorder

__all__ = [
    "ARRIVALS",
    "AllToAll",
    "ArrivalProcess",
    "BurstyArrivals",
    "ClosedLoopGenerator",
    "DeterministicArrivals",
    "Hotspot",
    "LoadSweep",
    "OpenLoopGenerator",
    "PATTERNS",
    "Permutation",
    "PoissonArrivals",
    "SERVICE_MAILBOX",
    "SINK_MAILBOX",
    "SLORecorder",
    "SweepPoint",
    "SweepResult",
    "TrafficPattern",
    "Transpose",
    "UniformRandom",
    "Workload",
    "WorkloadHost",
    "WorkloadResult",
    "make_arrivals",
    "make_pattern",
]
