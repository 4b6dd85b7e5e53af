"""CAB hardware timers (§5.1).

"Hardware timers allow time-outs to be set by the software with low
overhead" — the model charges no CPU time to arm or cancel a timer;
expiry invokes the callback directly, modelling the timer interrupt.
"""

from __future__ import annotations

from typing import Callable

from ..sim import Simulator


class TimerHandle:
    """A cancellable armed timer."""

    __slots__ = ("deadline", "_callback", "cancelled", "fired")

    def __init__(self, deadline: int, callback: Callable[[], None]) -> None:
        self.deadline = deadline
        self._callback = callback
        self.cancelled = False
        self.fired = False

    def cancel(self) -> bool:
        """Disarm; returns False if the timer already fired."""
        if self.fired:
            return False
        self.cancelled = True
        return True

    def _expire(self) -> None:
        if self.cancelled or self.fired:
            return
        self.fired = True
        self._callback()


class HardwareTimers:
    """The CAB's bank of hardware timers."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.expired = 0
        self.cancelled = 0

    def set(self, delay: int, callback: Callable[[], None]) -> TimerHandle:
        """Arm a timer ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"negative timer delay {delay}")
        handle = TimerHandle(self.sim.now + delay, callback)

        def expire() -> None:
            if handle.cancelled:
                self.cancelled += 1
                return
            self.expired += 1
            handle._expire()

        self.sim.call_in(delay, expire)
        return handle
