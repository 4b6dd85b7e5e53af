"""Partitioned scale-out simulation for 1000+ node fabrics.

Shards a Nectar installation across worker processes — one partition per
HUB cluster group — synchronized with conservative lookahead equal to
the inter-HUB fiber propagation delay.  Each worker runs the unmodified
:mod:`repro.sim` engine over its own hubs and CAB stacks, sends its
timestamped envelope batches straight to its peers over plain pipes and
plans, like every other worker, the window each partition's
per-boundary lookahead allows (:mod:`repro.scaleout.worker`,
:mod:`repro.scaleout.planner`).  Partitioned runs are bit-identical
(hard digest assert) to single-process runs of the same seeded
scenario.

The supervisor (:mod:`repro.scaleout.supervisor`) fails fast: when a
worker crashes, hangs or raises, every worker is reaped and the run
ends in one :class:`~repro.errors.ScaleoutError` that names the failing
partition and carries per-partition forensics.  Fault campaigns
(:mod:`repro.faults`) apply partition-aware: each worker applies the
slice whose targets it materialized.  See ``docs/SCALEOUT.md``.
"""

from .escl import (ScaleoutResult, ScaleoutScenario, Traffic,
                   fingerprint_digest, merge_fragments, scenarios,
                   spawn_traffic)
from .partition import (Partitioning, PartitionSystem, flow_paths,
                        lookahead_matrix, lookahead_ns, partition_fabric,
                        route_set)
from .runner import run_partitioned, run_single
from .supervisor import ESCL_CAMPAIGNS, Supervisor, escl_campaign

__all__ = [
    "ESCL_CAMPAIGNS",
    "Partitioning",
    "PartitionSystem",
    "ScaleoutResult",
    "ScaleoutScenario",
    "Supervisor",
    "Traffic",
    "escl_campaign",
    "fingerprint_digest",
    "flow_paths",
    "lookahead_matrix",
    "lookahead_ns",
    "merge_fragments",
    "partition_fabric",
    "route_set",
    "run_partitioned",
    "run_single",
    "scenarios",
    "spawn_traffic",
]
