"""Failure detection, self-healing routing and adaptive retransmission.

The paper names "recovery from hardware failures" as a HUB supervisor
duty (§4, goal 4) but leaves the mechanism open.  This package supplies
it end-to-end for the reproduction: active health monitoring (inter-HUB
link probes built from real HUB ``ECHO``/``STATUS_READY`` commands plus
CAB-to-CAB heartbeats) feeds a suspicion-threshold
:class:`FailureDetector`; confirmed link deaths are healed by rerouting
(:meth:`~repro.datalink.routing.Router.mark_link_down` /
:meth:`~repro.datalink.routing.Router.mark_link_up`); confirmed CAB
deaths force-open per-peer :class:`CircuitBreaker`\\ s so reliable sends
fail fast; and every reliable protocol (byte-stream, request-response,
and :mod:`repro.inet`'s TCP and VMTP) retransmits on the CAB's shared
per-peer Jacobson/Karn :class:`RtoEstimator` instead of a fixed timer.
Every decision is deterministic per seed.  See ``docs/RESILIENCE.md``.
"""

from .breaker import CircuitBreaker
from .detector import FailureDetector, TargetState
from .monitor import (HEARTBEAT_MAILBOX, HEARTBEAT_REPLY_MAILBOX,
                      ResilienceManager)
from .report import default_resilience_topology, run_resilience_comparison
from .rto import RtoEstimator

__all__ = [
    "HEARTBEAT_MAILBOX",
    "HEARTBEAT_REPLY_MAILBOX",
    "CircuitBreaker",
    "FailureDetector",
    "ResilienceManager",
    "RtoEstimator",
    "TargetState",
    "default_resilience_topology",
    "run_resilience_comparison",
]
