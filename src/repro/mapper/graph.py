"""Application task graphs for automated mapping (§6.3 future work).

"Work has started on higher-level programming tools for Nectar.  We are
developing a high-level language that will be mapped onto a specific
Nectar configuration by a compiler.  Automating the mapping process will
not only simplify the programming task, but will also make programs
portable across multiple Nectar configurations."

This package is that mapping layer: an application is declared as a
graph of tasks (compute demand, optional machine-type constraint) and
channels (traffic weight); the algorithms in
:mod:`repro.mapper.placement` assign tasks to CABs, and
:mod:`repro.mapper.deploy` instantiates the result through Nectarine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import NectarineError


@dataclass(frozen=True)
class TaskSpec:
    """One task in the application graph."""

    name: str
    #: CPU demand per activation (ns) — used for load balancing.
    compute_ns: int = 100_000
    #: Restrict placement to CABs whose node has this machine type
    #: (e.g. only a Warp can run the low-level vision task, §2.1).
    machine_type: Optional[str] = None


@dataclass(frozen=True)
class ChannelSpec:
    """A directed communication edge between two tasks."""

    src: str
    dst: str
    #: Bytes per message on this channel.
    message_bytes: int = 256
    #: Relative message rate (messages per unit of application time).
    rate: float = 1.0

    @property
    def traffic(self) -> float:
        """Bytes per unit time — the weight mapping minimises."""
        return self.message_bytes * self.rate


class TaskGraph:
    """A validated application graph."""

    def __init__(self) -> None:
        self.tasks: dict[str, TaskSpec] = {}
        self.channels: list[ChannelSpec] = []

    def add_task(self, name: str, compute_ns: int = 100_000,
                 machine_type: Optional[str] = None) -> TaskSpec:
        if name in self.tasks:
            raise NectarineError(f"duplicate task {name!r} in graph")
        spec = TaskSpec(name, compute_ns, machine_type)
        self.tasks[name] = spec
        return spec

    def add_channel(self, src: str, dst: str, message_bytes: int = 256,
                    rate: float = 1.0) -> ChannelSpec:
        for endpoint in (src, dst):
            if endpoint not in self.tasks:
                raise NectarineError(f"channel endpoint {endpoint!r} "
                                     f"is not a task")
        if src == dst:
            raise NectarineError(f"self-channel on {src!r}")
        spec = ChannelSpec(src, dst, message_bytes, rate)
        self.channels.append(spec)
        return spec

    @property
    def total_traffic(self) -> float:
        return sum(channel.traffic for channel in self.channels)

    def validate(self) -> None:
        if not self.tasks:
            raise NectarineError("empty task graph")

    def __len__(self) -> int:
        return len(self.tasks)
