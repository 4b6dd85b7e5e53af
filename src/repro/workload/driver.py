"""The load-sweep driver: step offered load, find the saturation knee.

:class:`LoadSweep` builds a **fresh** system per load step (via a
topology factory) so steps are independent and identically seeded, runs
one :class:`~repro.workload.generators.Workload` per step, and reports
the throughput/latency curve.  The *knee* is the highest offered load
the system still serves efficiently — the operating point every scaling
experiment in this repo is judged against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..errors import WorkloadError
from ..stats.tables import ExperimentTable
from .generators import Workload, WorkloadResult

__all__ = ["SweepPoint", "SweepResult", "LoadSweep"]

#: The knee is the highest load still served at this efficiency.
KNEE_EFFICIENCY = 0.9
#: Largest relative drop in achieved throughput between two load steps
#: that still counts as a monotone curve.
MONOTONE_TOLERANCE = 0.05


@dataclass

class SweepPoint:
    """One load step of a sweep."""

    offered_load: float
    result: WorkloadResult
    #: Final metric snapshot of the step's system (observed sweeps only).
    metrics: Optional[dict[str, Any]] = field(default=None, repr=False)
    #: Mean sampled value per series (observed sweeps only) — e.g. a
    #: port's mean ``.util`` over the step is its busy fraction.
    series_means: Optional[dict[str, float]] = field(default=None,
                                                     repr=False)


class SweepResult:
    """The measured throughput/latency curve of one sweep."""

    def __init__(self, points: list[SweepPoint]) -> None:
        if not points:
            raise WorkloadError("sweep produced no points")
        self.points = sorted(points, key=lambda p: p.offered_load)

    def __iter__(self):
        return iter(self.points)

    @property
    def loads(self) -> list[float]:
        return [p.offered_load for p in self.points]

    @property
    def achieved(self) -> list[float]:
        return [p.result.achieved_mbps for p in self.points]

    def is_monotone(self) -> bool:
        """Achieved throughput never drops by more than
        :data:`MONOTONE_TOLERANCE` (relative) from one load step to the
        next."""
        curve = self.achieved
        return all(b >= a * (1.0 - MONOTONE_TOLERANCE)
                   for a, b in zip(curve, curve[1:]))

    def knee(self) -> SweepPoint:
        """The highest load still served at :data:`KNEE_EFFICIENCY`.

        Falls back to the first point if even the lightest load is past
        saturation.
        """
        efficient = [p for p in self.points
                     if p.result.efficiency >= KNEE_EFFICIENCY]
        return efficient[-1] if efficient else self.points[0]

    def saturated(self) -> bool:
        """True if the sweep reached past the knee (some load missed the
        efficiency bar), i.e. the knee is identifiable, not censored."""
        return any(p.result.efficiency < KNEE_EFFICIENCY
                   for p in self.points)

    def table(self, experiment_id: str = "WL",
              title: str = "offered load sweep") -> ExperimentTable:
        table = ExperimentTable(experiment_id, title)
        knee_point = self.knee()
        for point in self.points:
            result = point.result
            marker = "  <- knee" if point is knee_point \
                and self.saturated() else ""
            table.add(
                f"load {point.offered_load:.2f}",
                f"{result.offered_mbps:7.1f} Mb/s offered",
                f"{result.achieved_mbps:7.1f} Mb/s, "
                f"p50 {result.p_us(0.50):8.1f} µs, "
                f"p99 {result.p_us(0.99):9.1f} µs{marker}",
                None)
        return table


class LoadSweep:
    """Step offered load over freshly built systems.

    ``topology_factory`` returns a finalized
    :class:`~repro.system.builder.NectarSystem`; one is built per load
    step so earlier steps cannot warm or clog later ones.  Remaining
    keyword arguments go to :class:`Workload` verbatim.
    """

    def __init__(self, topology_factory: Callable[[], object],
                 loads: Sequence[float],
                 progress: Optional[Callable[[str], None]] = None,
                 observe: bool = False,
                 fault_scenario=None,
                 resilience: bool = False,
                 **workload_kwargs) -> None:
        if not loads:
            raise WorkloadError("sweep needs at least one load point")
        if sorted(loads) != list(loads):
            raise WorkloadError("sweep loads must be ascending")
        if "offered_load" in workload_kwargs:
            raise WorkloadError("pass loads via the sweep, not offered_load")
        self.topology_factory = topology_factory
        self.loads = list(loads)
        self.progress = progress
        self.observe = observe
        #: Campaign name or :class:`~repro.faults.FaultScenario` injected
        #: into every step's fresh system — each load point runs under the
        #: same (identically seeded) fault schedule.
        self.fault_scenario = fault_scenario
        #: Enable failure detection + self-healing on every step's
        #: system (monitoring overhead then applies at every load point).
        self.resilience = resilience
        self.workload_kwargs = workload_kwargs

    def run(self) -> SweepResult:
        points = []
        for load in self.loads:
            system = self.topology_factory()
            if self.fault_scenario is not None:
                system.inject_faults(self.fault_scenario)
            if self.resilience:
                system.enable_resilience()
            observatory = None
            if self.observe:
                # Metrics only: event tracing over a whole sweep would
                # record millions of events for no benefit.
                observatory = system.observe(trace=False)
            workload = Workload(system, offered_load=load,
                                **self.workload_kwargs)
            result = workload.run()
            point = SweepPoint(load, result)
            if observatory is not None:
                point.metrics = observatory.snapshot()
                point.series_means = observatory.sampler.means()
            points.append(point)
            if self.progress is not None:
                self.progress(
                    f"load {load:.2f}: {result.achieved_mbps:.1f} Mb/s "
                    f"achieved, p99 {result.p_us(0.99):.1f} µs")
        return SweepResult(points)
