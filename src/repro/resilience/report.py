"""Clean / healed / unhealed resilience comparison reports.

:func:`run_resilience_comparison` runs the same workload three times on
freshly built systems:

* **clean** — resilience monitoring on, no faults (the monitoring
  overhead is part of the baseline, so goodput ratios are honest);
* **healed** — the fault campaign *and* the resilience manager: links
  die, the detector confirms them, routing reroutes, recovery
  reinstates;
* **unhealed** — the same campaign with no resilience manager: traffic
  keeps hashing onto the dead link for the full outage.

The arms run through :func:`repro.faults.report.run_arms` and land in
the same :class:`~repro.faults.report.Comparison` the clean-vs-faulted
report uses; this report places goodput/loss next to the detection and
repair numbers (transitions, reroutes, reinstatements, mean
time-to-detect/repair) that explain them.  The headline claim (E-RES1):
healed goodput stays within a few percent of clean with finite MTTR,
unhealed does not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Union

from ..config import NectarConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.report import Comparison
    from ..faults.scenario import FaultScenario

__all__ = ["default_resilience_topology", "run_resilience_comparison"]


def default_resilience_topology(cfg: Optional[NectarConfig] = None):
    """The canonical self-healing testbed: 2 HUBs, 2 links, 6 CABs."""
    # Imported here: topology pulls in the whole system stack, which
    # itself imports repro.resilience (circuit breakers in transport).
    from ..topology.builders import dual_link_system
    return dual_link_system(3, links=2, cfg=cfg)


def run_resilience_comparison(
        scenario: Union[str, FaultScenario] = "hub-link-flap", *,
        cfg: Optional[NectarConfig] = None,
        topology_factory: Optional[Callable[[], object]] = None,
        workload_kwargs: Optional[dict] = None,
        campaign_kwargs: Optional[dict] = None) -> Comparison:
    """Run one workload clean, healed, and unhealed on fresh systems.

    ``topology_factory`` must return a newly built (not yet run) system
    each call so the three runs start from identical state; by default
    it builds :func:`default_resilience_topology` with ``cfg``.
    ``scenario`` is a :class:`~repro.faults.FaultScenario` or a campaign
    name (resolved per-system with ``campaign_kwargs``).
    """
    from ..faults import build_campaign
    from ..faults.report import DELIVERY_ROWS, Comparison, run_arms

    def inject(system):
        system.inject_faults(
            build_campaign(scenario, system.cfg,
                           **dict(campaign_kwargs or {}))
            if isinstance(scenario, str) else scenario)

    def heal(system):
        inject(system)
        system.enable_resilience()

    metrics, systems = run_arms(
        topology_factory or (lambda: default_resilience_topology(cfg)),
        {"clean": lambda system: system.enable_resilience(),
         "healed": heal, "unhealed": inject},
        workload_kwargs)
    clean = metrics["clean"].achieved_mbps
    ratios = {f"{label}_goodput_ratio":
              metrics[label].achieved_mbps / clean if clean else 0.0
              for label in ("healed", "unhealed")}
    healed = systems["healed"]
    return Comparison(
        healed.fault_injector.scenario.name, metrics,
        DELIVERY_ROWS + ("breaker_fast_fails", "faults_injected",
                         "transitions", "reroutes", "reinstatements",
                         "mean_time_to_detect_ns",
                         "mean_time_to_repair_ns"),
        ratios, footer=tuple(ratios),
        schedule_text=healed.fault_injector.schedule_text(),
        transition_text=healed.resilience.transition_text())
