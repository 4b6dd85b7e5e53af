"""N-arm workload comparison reports: one workload, fresh systems.

:func:`run_arms` runs the same workload once per *arm* — each arm a
freshly built system prepared differently (clean, faulted, healed, …) —
and :class:`Comparison` lines the arms' delivery numbers up next to the
recovery and healing counters that explain them.  This is the one
collector, comparison and table renderer in the repo; the two public
entry points are thin:

* :func:`run_comparison` — clean versus faulted (``python -m repro
  faults``): reliable transports should show retransmits > 0 and loss
  ≈ 0, datagram traffic should show loss tracking the drop windows;
* :func:`repro.resilience.run_resilience_comparison` — clean / healed /
  unhealed (``python -m repro resilience``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ..workload.generators import Workload, WorkloadResult
from .scenario import FaultScenario

__all__ = ["Comparison", "RunMetrics", "run_arms", "run_comparison"]


@dataclass
class RunMetrics:
    """One workload run's delivery, recovery and healing numbers."""

    label: str
    sent: int
    delivered: int
    errors: int
    loss_fraction: float
    offered_mbps: float
    achieved_mbps: float
    p50_us: float
    p99_us: float
    #: Byte-stream + RPC retransmissions across every CAB.
    retransmits: int
    circuit_retries: int
    reply_timeouts: int
    checksum_drops: int
    fiber_drops: int
    reply_drops: int
    breaker_fast_fails: int
    faults_injected: int
    # Resilience-manager telemetry; zero/None on a run without a manager.
    transitions: int = 0
    reroutes: int = 0
    reinstatements: int = 0
    mean_time_to_detect_ns: Optional[float] = None
    mean_time_to_repair_ns: Optional[float] = None


def _opt_us(value: Optional[float]) -> str:
    return "-" if value is None else f"{value / 1000.0:.1f}"


#: Every metric a table can show: field -> (row label, cell formatter).
ROWS = {
    "sent": ("sent", "{:d}".format),
    "delivered": ("delivered", "{:d}".format),
    "errors": ("errors", "{:d}".format),
    "loss_fraction": ("loss fraction", "{:.4f}".format),
    "achieved_mbps": ("goodput (Mb/s)", "{:.2f}".format),
    "p50_us": ("p50 latency (us)", "{:.1f}".format),
    "p99_us": ("p99 latency (us)", "{:.1f}".format),
    "retransmits": ("retransmits", "{:d}".format),
    "circuit_retries": ("circuit retries", "{:d}".format),
    "reply_timeouts": ("reply timeouts", "{:d}".format),
    "checksum_drops": ("checksum drops", "{:d}".format),
    "fiber_drops": ("fiber drops", "{:d}".format),
    "reply_drops": ("reply drops", "{:d}".format),
    "breaker_fast_fails": ("breaker fast fails", "{:d}".format),
    "faults_injected": ("faults injected", "{:d}".format),
    "transitions": ("detector transitions", "{:d}".format),
    "reroutes": ("reroutes", "{:d}".format),
    "reinstatements": ("reinstatements", "{:d}".format),
    "mean_time_to_detect_ns": ("mean detect (us)", _opt_us),
    "mean_time_to_repair_ns": ("mean repair (us)", _opt_us),
}

#: The delivery rows every comparison leads with.
DELIVERY_ROWS = ("sent", "delivered", "errors", "loss_fraction",
                 "achieved_mbps", "p50_us", "p99_us", "retransmits")


def collect_metrics(system, result: WorkloadResult, label: str) -> RunMetrics:
    """Pull delivery, recovery and healing counters out of a finished run."""
    recorder = result.recorder
    stacks = list(system.cabs.values())
    fibers = system.fibers()
    injector = system.fault_injector
    metrics = RunMetrics(
        label=label,
        sent=recorder.sent,
        delivered=recorder.delivered,
        errors=recorder.errors,
        loss_fraction=recorder.loss_fraction,
        offered_mbps=recorder.offered_mbps,
        achieved_mbps=recorder.achieved_mbps,
        p50_us=recorder.percentile_us(0.50),
        p99_us=recorder.percentile_us(0.99),
        retransmits=sum(stack.transport.stream.retransmitted
                        + stack.transport.rpc.retransmits
                        for stack in stacks),
        circuit_retries=sum(
            stack.datalink.counters.get("circuit_retries", 0)
            for stack in stacks),
        reply_timeouts=sum(
            stack.datalink.counters.get("reply_timeouts", 0)
            for stack in stacks),
        checksum_drops=sum(
            stack.transport.counters.get("checksum_drops", 0)
            for stack in stacks),
        fiber_drops=sum(f.packets_dropped for f in fibers.values()),
        reply_drops=sum(f.replies_dropped for f in fibers.values()),
        breaker_fast_fails=sum(
            stack.transport.counters.get("breaker_fast_fails", 0)
            for stack in stacks),
        faults_injected=0 if injector is None
        else injector.counters.get("injected", 0),
    )
    if system.resilience is not None:
        summary = system.resilience.summary()
        metrics.transitions = summary["transitions"]
        metrics.reroutes = summary["counters"].get("reroutes", 0)
        metrics.reinstatements = summary["counters"].get(
            "reinstatements", 0)
        metrics.mean_time_to_detect_ns = summary["mean_time_to_detect_ns"]
        metrics.mean_time_to_repair_ns = summary["mean_time_to_repair_ns"]
    return metrics


@dataclass
class Comparison:
    """One workload's arms side by side, the first arm the baseline.

    Arms and headline numbers read as attributes by name
    (``comparison.healed.reroutes``, ``comparison.retransmit_delta``).
    """

    scenario_name: str
    arms: dict[str, RunMetrics]
    #: The :data:`ROWS` this report shows, in table order.
    rows: tuple[str, ...]
    #: Numbers derived against the baseline arm, by ``summary()`` key.
    headline: dict[str, float]
    #: The headline keys :meth:`table` prints under the rows.
    footer: tuple[str, ...] = ()
    schedule_text: str = field(default="", repr=False)
    #: Canonical detector timeline of the healed arm (determinism probe).
    transition_text: str = field(default="", repr=False)

    def __getattr__(self, name: str):
        for mapping in ("arms", "headline"):
            values = self.__dict__.get(mapping, {})
            if name in values:
                return values[name]
        raise AttributeError(name)

    def summary(self) -> dict:
        """The JSON document: per arm the shown rows plus label and
        offered load, then the headline numbers."""
        shown = ("label", "offered_mbps") + self.rows
        return {"scenario": self.scenario_name,
                **{label: {key: getattr(metrics, key) for key in shown}
                   for label, metrics in self.arms.items()},
                **self.headline}

    def table(self) -> str:
        """A terminal-friendly table, one column per arm."""
        labels = [ROWS[key][0] for key in self.rows]
        width = max(20, max(map(len, labels)) + 2)
        lines = [f"scenario: {self.scenario_name}",
                 f"{'metric':<{width}s}"
                 + "".join(f" {label:>12s}" for label in self.arms)]
        for key, label in zip(self.rows, labels):
            fmt = ROWS[key][1]
            lines.append(f"{label:<{width}s}" + "".join(
                f" {fmt(getattr(metrics, key)):>12s}"
                for metrics in self.arms.values()))
        for key in self.footer:
            lines.append(f"{key.replace('_', ' '):<{width}s} "
                         f"{self.headline[key]:.3f}")
        return "\n".join(lines)


def run_arms(topology_factory: Callable[[], object],
             arms: dict[str, Callable[[object], object]],
             workload_kwargs: Optional[dict] = None
             ) -> tuple[dict[str, RunMetrics], dict[str, object]]:
    """Run one workload once per arm, each on a fresh system.

    ``topology_factory`` must return a newly built (not yet run)
    :class:`~repro.system.builder.NectarSystem` each call so every arm
    starts from identical state; ``arms`` maps a label to the function
    that prepares that arm's system (inject faults, enable resilience)
    before the workload runs.  Returns the metrics and the finished
    systems, both by label.
    """
    kwargs = dict(workload_kwargs or {})
    metrics, systems = {}, {}
    for label, prepare in arms.items():
        system = systems[label] = topology_factory()
        prepare(system)
        result = Workload(system, **kwargs).run()
        metrics[label] = collect_metrics(system, result, label)
    return metrics, systems


def run_comparison(topology_factory: Callable[[], object],
                   scenario: Union[str, FaultScenario],
                   workload_kwargs: Optional[dict] = None) -> Comparison:
    """Run one workload clean and under ``scenario`` on fresh systems.

    ``scenario`` is a :class:`FaultScenario` or a campaign name.
    """
    metrics, systems = run_arms(
        topology_factory,
        {"clean": lambda system: None,
         "faulted": lambda system: system.inject_faults(scenario)},
        workload_kwargs)
    clean, faulted = metrics["clean"], metrics["faulted"]
    injector = systems["faulted"].fault_injector
    return Comparison(
        injector.scenario.name, metrics,
        DELIVERY_ROWS + ("circuit_retries", "reply_timeouts",
                         "checksum_drops", "fiber_drops", "reply_drops",
                         "faults_injected"),
        {"goodput_delta_mbps": faulted.achieved_mbps - clean.achieved_mbps,
         "p99_delta_us": faulted.p99_us - clean.p99_us,
         "retransmit_delta": faulted.retransmits - clean.retransmits},
        schedule_text=injector.schedule_text())
