"""Arrival processes: when a traffic source emits its next message.

Each process yields inter-arrival gaps in integer nanoseconds around a
configured mean, so offered load is ``message_bytes / mean_gap_ns``
regardless of the process shape.  All randomness comes from the RNG
stream handed in at construction (derive it from
:meth:`~repro.config.NectarConfig.rng_stream`), so a seeded run replays
the exact same arrival times.
"""

from __future__ import annotations

import random
from typing import Optional

from ..errors import WorkloadError


class ArrivalProcess:
    """Base class: a stream of inter-arrival gaps (ns)."""

    name = "arrivals"

    def __init__(self, mean_gap_ns: float) -> None:
        if mean_gap_ns < 1:
            raise WorkloadError(
                f"mean inter-arrival gap must be >= 1 ns, got {mean_gap_ns}")
        self.mean_gap_ns = mean_gap_ns

    def next_gap(self) -> int:
        """Nanoseconds until the next intended departure."""
        raise NotImplementedError


class DeterministicArrivals(ArrivalProcess):
    """Constant-rate arrivals: every gap is exactly the mean."""

    name = "deterministic"

    def __init__(self, mean_gap_ns: float,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(mean_gap_ns)
        self._gap = max(1, round(mean_gap_ns))

    def next_gap(self) -> int:
        return self._gap


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponentially distributed gaps."""

    name = "poisson"

    def __init__(self, mean_gap_ns: float, rng: random.Random) -> None:
        super().__init__(mean_gap_ns)
        self.rng = rng

    def next_gap(self) -> int:
        return max(1, round(self.rng.expovariate(1.0 / self.mean_gap_ns)))


class BurstyArrivals(ArrivalProcess):
    """On/off (bursty) arrivals with the same long-run mean.

    During an "on" burst of ``burst_length`` messages, gaps are
    exponential with mean ``duty_cycle * mean_gap_ns`` (a burst runs
    ``1 / duty_cycle`` times faster than the average rate); each burst is
    followed by an "off" pause sized so the long-run mean gap stays at
    ``mean_gap_ns``.  Lower duty cycles mean sharper bursts.
    """

    name = "bursty"

    def __init__(self, mean_gap_ns: float, rng: random.Random,
                 burst_length: int = 8, duty_cycle: float = 0.25) -> None:
        super().__init__(mean_gap_ns)
        if burst_length < 1:
            raise WorkloadError(f"burst length must be >= 1, "
                                f"got {burst_length}")
        if not 0.0 < duty_cycle <= 1.0:
            raise WorkloadError(f"duty cycle {duty_cycle} outside (0, 1]")
        self.rng = rng
        self.burst_length = burst_length
        self._in_burst = 0
        self._on_gap = duty_cycle * mean_gap_ns
        self._off_gap = (mean_gap_ns - self._on_gap) * burst_length \
            + self._on_gap

    def next_gap(self) -> int:
        if self._in_burst < self.burst_length - 1:
            self._in_burst += 1
            gap = self.rng.expovariate(1.0 / self._on_gap)
        else:
            self._in_burst = 0
            gap = self.rng.expovariate(1.0 / self._off_gap)
        return max(1, round(gap))


#: Arrival-process registry for CLI / factory lookups.
ARRIVALS = {
    "deterministic": DeterministicArrivals,
    "poisson": PoissonArrivals,
    "bursty": BurstyArrivals,
}


def make_arrivals(name: str, mean_gap_ns: float,
                  rng: Optional[random.Random] = None) -> ArrivalProcess:
    """Build an arrival process by name (``deterministic``, ``poisson``,
    ``bursty``)."""
    try:
        cls = ARRIVALS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown arrival process {name!r}; "
            f"choose from {sorted(ARRIVALS)}") from None
    if cls is not DeterministicArrivals and rng is None:
        raise WorkloadError(f"arrival process {name!r} needs an RNG stream")
    return cls(mean_gap_ns, rng)
