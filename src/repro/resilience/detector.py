"""The suspicion-threshold failure detector.

Every monitored target — a peer CAB (heartbeats), an inter-HUB link
(ECHO probes), a CAB's own uplink (``STATUS_READY``) — carries a small
state machine::

    alive --k failures--> suspect --m failures--> dead
      ^                      |                      |
      '----1 success---------'                      v
      '<---n successes---------------------- recovering

Counts are *consecutive*: any success while merely suspect clears the
suspicion outright, while a confirmed-dead target must produce
``recover_after`` consecutive successes (state ``recovering``) before
it is trusted again — one lucky probe through a flapping link must not
flip routes back and forth.

Every transition is appended to a log of ``(time_ns, target, old,
new)`` tuples; :meth:`FailureDetector.transition_text` is the canonical
rendering used by the determinism checks (two same-seed runs must
produce byte-identical timelines).  Healing actions hang off
:attr:`FailureDetector.on_transition` callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import ConfigError

__all__ = ["FailureDetector", "TargetState"]

STATES = ("alive", "suspect", "dead", "recovering")


@dataclass
class TargetState:
    """Detector bookkeeping for one monitored target."""

    target: str
    kind: str
    suspect_after: int
    dead_after: int
    recover_after: int
    state: str = "alive"
    consecutive_failures: int = 0
    consecutive_successes: int = 0
    #: When the current failure streak began (MTTR bookkeeping).
    first_failure_ns: Optional[int] = None


class FailureDetector:
    """Per-target alive/suspect/dead/recovering tracking."""

    def __init__(self, clock: Callable[[], int]) -> None:
        self.clock = clock
        self.targets: dict[str, TargetState] = {}
        #: ``(time_ns, target, old_state, new_state)`` in event order.
        self.transitions: list[tuple[int, str, str, str]] = []
        #: Healing hooks: ``callback(state, old, new, time_ns)``.
        self.on_transition: list[Callable[[TargetState, str, str, int],
                                          None]] = []

    # ------------------------------------------------------------------

    def watch(self, target: str, kind: str, *, suspect_after: int,
              dead_after: int, recover_after: int) -> TargetState:
        """Register a target (idempotent; thresholds fixed on first
        registration)."""
        existing = self.targets.get(target)
        if existing is not None:
            return existing
        if not 1 <= suspect_after <= dead_after or recover_after < 1:
            raise ConfigError(
                f"detector thresholds for {target!r} must satisfy "
                f"1 <= suspect ({suspect_after}) <= dead ({dead_after}) "
                f"and recover ({recover_after}) >= 1")
        state = TargetState(target, kind, suspect_after, dead_after,
                            recover_after)
        self.targets[target] = state
        return state

    def state(self, target: str) -> str:
        return self.targets[target].state

    # ------------------------------------------------------------------
    # evidence
    # ------------------------------------------------------------------

    def report_success(self, target: str) -> None:
        ts = self.targets[target]
        ts.consecutive_failures = 0
        ts.first_failure_ns = None
        if ts.state == "alive":
            return
        if ts.state == "suspect":
            # Unconfirmed suspicion: one good probe clears it.
            self._transition(ts, "alive")
            return
        if ts.state == "dead":
            ts.consecutive_successes = 1
            if ts.recover_after <= 1:
                self._transition(ts, "alive")
            else:
                self._transition(ts, "recovering")
            return
        # recovering
        ts.consecutive_successes += 1
        if ts.consecutive_successes >= ts.recover_after:
            self._transition(ts, "alive")

    def report_failure(self, target: str) -> None:
        ts = self.targets[target]
        ts.consecutive_successes = 0
        ts.consecutive_failures += 1
        if ts.first_failure_ns is None:
            ts.first_failure_ns = self.clock()
        if ts.state == "recovering":
            # The comeback was premature: straight back to dead.
            self._transition(ts, "dead")
            return
        if ts.state == "alive" \
                and ts.consecutive_failures >= ts.suspect_after:
            self._transition(ts, "suspect")
        if ts.state == "suspect" \
                and ts.consecutive_failures >= ts.dead_after:
            self._transition(ts, "dead")

    # ------------------------------------------------------------------

    def _transition(self, ts: TargetState, new: str) -> None:
        old, ts.state = ts.state, new
        now = self.clock()
        if new in ("alive", "recovering"):
            ts.consecutive_failures = 0
        self.transitions.append((now, ts.target, old, new))
        for callback in self.on_transition:
            callback(ts, old, new, now)

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------

    def transition_text(self) -> str:
        """The transition timeline as canonical text (determinism
        checks: two same-seed runs must render identically)."""
        return "\n".join(
            f"{time:>12d} {target:<40s} {old:>10s} -> {new}"
            for time, target, old, new in self.transitions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FailureDetector targets={len(self.targets)} "
                f"transitions={len(self.transitions)}>")
