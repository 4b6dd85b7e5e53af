"""Deterministic fault injection for the Nectar reproduction.

The paper's reliability story — §4.2.1 open-retry/reply with
timeout-and-retry, §6.2.2 acknowledgments, retransmissions and
reassembly — is only trustworthy if it is exercised.  This package
schedules seed-driven fault campaigns (link degradation and outages,
HUB port flaps via the supervisor command set, CAB stalls/crashes,
reply-loss storms) against a running
:class:`~repro.system.builder.NectarSystem` and records every injected
event through :mod:`repro.observe`.  See ``docs/FAULTS.md``.
"""

from .campaigns import CAMPAIGNS, build_campaign
from .injector import FaultInjector
from .report import Comparison, RunMetrics, run_comparison
from .scenario import FAULT_KINDS, FaultEvent, FaultScenario

__all__ = [
    "CAMPAIGNS",
    "Comparison",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultScenario",
    "RunMetrics",
    "build_campaign",
    "run_comparison",
]
