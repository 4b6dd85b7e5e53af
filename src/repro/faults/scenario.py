"""Declarative fault scenarios: what breaks, where, when, for how long.

A :class:`FaultScenario` is a plain, validated description — a name plus
a list of :class:`FaultEvent` windows — decoupled from the machinery that
applies it (:mod:`repro.faults.injector`).
:meth:`FaultScenario.schedule_text` renders the canonical schedule used
to assert that one seed reproduces byte-identical campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultScenario"]

#: Every fault kind the injector knows how to apply.
#:
#: ``link_degrade``
#:     Overlay drop/corrupt probabilities on every fiber matching
#:     ``target`` (an ``fnmatch`` glob over wiring names) for the window.
#: ``link_down``
#:     Matching fibers black-hole everything: packets arrive damaged
#:     (framing error — flow control stays sound), replies vanish.
#: ``reply_storm``
#:     Matching fibers drop replies/ready signals with probability
#:     ``reply_drop`` — the §4.2.1 timeout-and-retry stressor.
#: ``hub_port_down``
#:     Disable matching HUB ports (``target`` globs ``hub:port`` names)
#:     through the supervisor command set, re-enable after the window.
#: ``cab_stall``
#:     Seize the CPU of matching CABs for the window (wedged firmware).
#: ``cab_crash``
#:     Stall the CPU *and* down both attached fibers — a dead board that
#:     comes back after the window.
FAULT_KINDS = frozenset({
    "link_degrade", "link_down", "reply_storm",
    "hub_port_down", "cab_stall", "cab_crash",
})

#: Kinds whose ``target`` matches fiber names.
FIBER_KINDS = frozenset({"link_degrade", "link_down", "reply_storm"})
#: Kinds whose ``target`` matches CAB names.
CAB_KINDS = frozenset({"cab_stall", "cab_crash"})
#: Kinds whose ``target`` matches ``hub:port`` labels.
PORT_KINDS = frozenset({"hub_port_down"})


@dataclass(frozen=True)
class FaultEvent:
    """One fault window: apply at ``at_ns``, revert ``duration_ns`` later."""

    kind: str
    at_ns: int
    duration_ns: int = 0
    #: ``fnmatch`` glob over fiber names / CAB names / ``hub:port`` labels.
    target: str = "*"
    #: Drop probability overlay (``link_degrade``).
    drop: float = 0.0
    #: Corruption probability overlay (``link_degrade``).
    corrupt: float = 0.0
    #: Reply-loss probability overlay (``reply_storm``).
    reply_drop: float = 0.0

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(FAULT_KINDS)}")
        if self.at_ns < 0:
            raise ConfigError(f"fault at_ns must be >= 0, got {self.at_ns}")
        if self.duration_ns < 0:
            raise ConfigError(
                f"fault duration_ns must be >= 0, got {self.duration_ns}")
        if self.kind in ("cab_stall", "cab_crash", "hub_port_down",
                         "link_down") and self.duration_ns == 0:
            raise ConfigError(
                f"{self.kind} needs a positive duration_ns (a zero-length "
                f"outage injects nothing)")
        for name in ("drop", "corrupt", "reply_drop"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(
                    f"fault {name} must be within [0, 1], got {value}")
        if self.kind == "link_degrade" and self.drop == 0.0 \
                and self.corrupt == 0.0:
            raise ConfigError(
                "link_degrade needs drop and/or corrupt probabilities")
        if self.kind == "reply_storm" and self.reply_drop == 0.0:
            raise ConfigError("reply_storm needs a reply_drop probability")
        if not self.target:
            raise ConfigError("fault target glob must be non-empty")

    def describe(self) -> str:
        """One canonical line (used for the schedule signature)."""
        knobs = []
        for name in ("drop", "corrupt", "reply_drop"):
            value = getattr(self, name)
            if value:
                knobs.append(f"{name}={value:.6f}")
        suffix = f" [{' '.join(knobs)}]" if knobs else ""
        return (f"{self.at_ns:>12d} +{self.duration_ns:<10d} "
                f"{self.kind:<14s} {self.target}{suffix}")


@dataclass
class FaultScenario:
    """A named, ordered collection of fault events."""

    name: str
    events: list[FaultEvent] = field(default_factory=list)
    description: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.name:
            raise ConfigError("fault scenario needs a name")
        for event in self.events:
            event.validate()
        self.events = sorted(
            self.events, key=lambda e: (e.at_ns, e.kind, e.target))

    @property
    def horizon_ns(self) -> int:
        """Simulated time by which every window has been reverted."""
        if not self.events:
            return 0
        return max(event.at_ns + event.duration_ns for event in self.events)

    def schedule_text(self) -> str:
        """The canonical schedule: byte-identical for identical seeds."""
        lines = [f"scenario {self.name} events={len(self.events)}"]
        lines.extend(event.describe() for event in self.events)
        return "\n".join(lines)
