"""The fault-injection driver: applies scenarios to a running system.

:class:`FaultInjector` resolves each event's target glob against the
built system (fiber wiring names, CAB names, ``hub:port`` labels), then
runs one simulator process per event that applies the fault at its
scheduled time and reverts it when the window closes.  Every action is
counted (``fault.*`` probes) and recorded through the system tracer
(``fault.inject`` / ``fault.revert`` events), so recovery behaviour is
visible in exported traces next to the traffic it disturbed.
"""

from __future__ import annotations

from collections import defaultdict
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Optional

from ..errors import ConfigError
from ..hardware.frames import HubCommand
from ..hardware.hub_commands import CommandOp
from .scenario import CAB_KINDS, FIBER_KINDS, PORT_KINDS, FaultScenario

__all__ = ["FaultInjector"]

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.hub_port import HubPort
    from ..system.builder import NectarSystem
    from .scenario import FaultEvent


class FaultInjector:
    """Schedules one :class:`FaultScenario` against a built system."""

    def __init__(self, system: "NectarSystem",
                 scenario: FaultScenario) -> None:
        self.system = system
        self.scenario = scenario
        self.sim = system.sim
        self.counters: dict[str, int] = defaultdict(int)
        #: Currently open fault windows (sampled as ``fault.active``).
        self.active = 0
        #: Applied-schedule record: ``(time_ns, action, kind, target)``
        #: tuples, one per injection/revert, in simulation order.
        self.log: list[tuple[int, str, str, str]] = []
        #: Events whose target matched nothing here.  A whole system
        #: rejects such a target; a partial one (a scale-out partition,
        #: handed the same campaign as every other) skips it, because
        #: the target lives in another partition.
        self.skipped: list["FaultEvent"] = []
        self._started = False
        self._resolve_targets()

    # ------------------------------------------------------------------
    # target resolution
    # ------------------------------------------------------------------

    def _ports(self) -> dict[str, "HubPort"]:
        """Every wired HUB port, keyed by its ``hub:port`` label."""
        return {f"{hub.name}:{port.index}": port
                for hub in self.system.hubs.values()
                for port in hub.ports if port.peer is not None}

    def _resolve_targets(self) -> None:
        fibers = self.system.fibers()
        ports = self._ports()
        self._matches: dict[int, list] = {}
        for index, event in enumerate(self.scenario.events):
            if event.kind in FIBER_KINDS:
                pool = fibers
            elif event.kind in PORT_KINDS:
                pool = ports
            elif event.kind in CAB_KINDS:
                pool = self.system.cabs
            else:  # pragma: no cover - scenario.validate rejects these
                raise ConfigError(f"unknown fault kind {event.kind!r}")
            matched = [pool[name] for name in sorted(pool)
                       if fnmatchcase(name, event.target)]
            if not matched:
                if self.system.partial:
                    self.skipped.append(event)
                    self._matches[index] = []
                    continue
                raise ConfigError(
                    f"fault scenario {self.scenario.name!r}: target "
                    f"{event.target!r} ({event.kind}) matches nothing; "
                    f"known names include {sorted(pool)[:8]}")
            self._matches[index] = matched

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn one driver process per scheduled event."""
        if self._started:
            raise ConfigError("fault injector already started")
        self._started = True
        for index, event in enumerate(self.scenario.events):
            if not self._matches[index]:
                continue
            self.sim.process(
                self._drive(event, self._matches[index]),
                name=f"faults:{self.scenario.name}#{index}")

    def _drive(self, event: "FaultEvent", matched: list):
        if event.at_ns > self.sim.now:
            yield event.at_ns - self.sim.now
        self._record("inject", event)
        self.active += 1
        if event.kind == "link_degrade":
            for fiber in matched:
                fiber.set_fault(drop=event.drop, corrupt=event.corrupt)
            yield event.duration_ns
            for fiber in matched:
                fiber.set_fault(drop=0.0, corrupt=0.0)
        elif event.kind == "link_down":
            for fiber in matched:
                fiber.set_fault(down=True)
            yield event.duration_ns
            for fiber in matched:
                fiber.set_fault(down=False)
        elif event.kind == "reply_storm":
            for fiber in matched:
                fiber.set_fault(reply_drop=event.reply_drop)
            yield event.duration_ns
            for fiber in matched:
                fiber.set_fault(reply_drop=0.0)
        elif event.kind == "hub_port_down":
            yield from self._flap_ports(event, matched)
        elif event.kind == "cab_stall":
            yield from self._stall_cabs(event, matched, crash=False)
        elif event.kind == "cab_crash":
            yield from self._stall_cabs(event, matched, crash=True)
        self.active -= 1
        self._record("revert", event)

    def _flap_ports(self, event: "FaultEvent", matched: list):
        """Disable/re-enable HUB ports via the supervisor command set."""
        for port in matched:
            yield from self._supervisor(port, CommandOp.SV_DISABLE_PORT)
        yield event.duration_ns
        for port in matched:
            yield from self._supervisor(port, CommandOp.SV_ENABLE_PORT)

    def _supervisor(self, port: "HubPort", op: CommandOp):
        hub = port.hub
        command = HubCommand(op, hub.name, port.index, origin="faults")
        yield from hub.execute_command(command, in_port=port.index,
                                       reverse_path=[])

    def _stall_cabs(self, event: "FaultEvent", matched: list, crash: bool):
        """Seize CPUs; a crash also downs the board's fiber pair."""
        fibers = []
        if crash:
            for stack in matched:
                board = stack.board
                for fiber in (board.out_fiber,
                              board.hub_port.out_fiber
                              if board.hub_port is not None else None):
                    if fiber is not None:
                        fibers.append(fiber)
            for fiber in fibers:
                fiber.set_fault(down=True)
        stalls = [self.sim.process(
                      stack.board.cpu.stall(event.duration_ns),
                      name=f"faults:stall:{stack.name}")
                  for stack in matched]
        yield self.sim.all_of(stalls)
        for fiber in fibers:
            fiber.set_fault(down=False)

    def _record(self, action: str, event: "FaultEvent") -> None:
        now = self.sim.now
        self.counters[f"{action}ed"] += 1
        self.counters[f"{action}ed_{event.kind}"] += 1
        self.log.append((now, action, event.kind, event.target))
        self.system.tracer.record(
            "faults", f"fault.{action}", fault_kind=event.kind,
            target=event.target, scenario=self.scenario.name)

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------

    def schedule_text(self) -> str:
        """The applied schedule as canonical text (determinism checks)."""
        lines = [self.scenario.schedule_text()]
        lines.extend(f"{time:>12d} {action:<7s} {kind:<14s} {target}"
                     for time, action, kind, target in self.log)
        return "\n".join(lines)

    def register_metrics(self, sampler) -> None:
        """Expose campaign progress as sampled ``fault.*`` series."""
        sampler.add_probe(
            "fault.active", lambda: float(self.active),
            description="fault windows currently open", unit="faults")
        sampler.add_probe(
            "fault.injected",
            lambda: float(self.counters.get("injected", 0)),
            description="fault windows opened so far", unit="events")
        sampler.add_probe(
            "fault.reverted",
            lambda: float(self.counters.get("reverted", 0)),
            description="fault windows closed so far", unit="events")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FaultInjector {self.scenario.name!r} "
                f"events={len(self.scenario.events)} active={self.active}>")
