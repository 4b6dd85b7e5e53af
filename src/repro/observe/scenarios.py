"""The canned instrumented scenarios of ``python -m repro observe``.

Each is a topology (builder plus arguments) and the workload settings
that differ from :data:`BASE_WORKLOAD`.  Not re-exported from
:mod:`repro.observe`: the topology builders import that package.
"""

from __future__ import annotations

from ..config import NectarConfig
from ..sim import units
from ..topology import mesh_system, single_hub_system

__all__ = ["BASE_WORKLOAD", "SCENARIOS", "build"]

BASE_WORKLOAD = dict(pattern="uniform", arrivals="poisson", mode="open",
                     message_bytes=256, offered_load=0.3,
                     warmup_ns=units.ms(0.5))

#: name -> (description, topology builder, its arguments, workload
#: settings over :data:`BASE_WORKLOAD`).
SCENARIOS = {
    "quickstart": ("4 CABs on one HUB, uniform open-loop load 0.3, 256 B",
                   single_hub_system, (4,), {}),
    "hotspot": ("8 CABs on one HUB, half the traffic aimed at cab0",
                single_hub_system, (8,),
                dict(pattern="hotspot", offered_load=0.5,
                     pattern_kwargs={"fraction": 0.5})),
    "mesh": ("2x2 HUB mesh, 2 CABs per HUB, uniform load 0.4",
             mesh_system, (2, 2, 2), dict(offered_load=0.4)),
}


def build(name: str, seed: int, duration_ns: int):
    """A fresh system and the ``Workload`` keyword arguments for ``name``."""
    _description, builder, shape, settings = SCENARIOS[name]
    system = builder(*shape, cfg=NectarConfig(seed=seed))
    return system, {**BASE_WORKLOAD, **settings, "duration_ns": duration_ns}
