"""Discrete-event simulation kernel underlying the Nectar reproduction.

Public surface::

    from repro.sim import Simulator, Store, Resource

Time is integer nanoseconds; see :mod:`repro.sim.units`.
"""

from .engine import SimulationError, Simulator
from .events import AllOf, AnyOf, Condition, Event, Timeout
from .process import Process, ProcessCrash
from .resources import Broadcast, Resource, Store
from .trace import TraceRecord, Tracer
from . import units

__all__ = [
    "AllOf",
    "AnyOf",
    "Broadcast",
    "Condition",
    "Event",
    "Process",
    "ProcessCrash",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "units",
]
