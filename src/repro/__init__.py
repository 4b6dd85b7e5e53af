"""Nectar: a simulated network backplane for heterogeneous multicomputers.

A full-system reproduction of Arnould et al., "The Design of Nectar: A
Network Backplane for Heterogeneous Multicomputers" (ASPLOS 1989), built
on a discrete-event simulator.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for the paper-versus-measured record.

Quickstart::

    from repro import NectarConfig
    from repro.system import NectarSystem

    system = NectarSystem(NectarConfig())
    hub = system.add_hub("hub0")
    alpha = system.add_cab("alpha", hub)
    beta = system.add_cab("beta", hub)
    system.finalize()
    ...
"""

from .config import NectarConfig
from .errors import (ChecksumError, ConfigError, DatalinkError, MailboxError,
                     NectarError, NectarineError, NodeError, ProtectionFault,
                     RouteError, TopologyError, TransportError)

__version__ = "1.0.0"

__all__ = [
    "ChecksumError",
    "ConfigError",
    "DatalinkError",
    "MailboxError",
    "NectarConfig",
    "NectarError",
    "NectarineError",
    "NodeError",
    "ProtectionFault",
    "RouteError",
    "TopologyError",
    "TransportError",
    "__version__",
]

