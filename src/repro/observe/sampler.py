"""Periodic metric sampling as a simulator process.

The instrumentation board (§4.1) watches backplane signals continuously;
software has to poll.  :class:`MetricSampler` runs as an ordinary
simulator process: every ``interval_ns`` it evaluates its registered
probes against live component state and appends one point per probe to
the corresponding :class:`TimeSeries`.  Sampling adds **zero simulated
time** to the instrumented components — probes only read state — so an
observed run has identical timing to an unobserved one.

Two probe flavours:

* :meth:`MetricSampler.add_probe` — an instantaneous level (queue depth,
  ready bit, channel busy).
* :meth:`MetricSampler.add_utilization_probe` — a busy *fraction* derived
  from a monotonically increasing unit count (e.g. fiber bytes sent):
  each tick converts the count delta into busy-nanoseconds and divides by
  the interval, clamped to [0, 1]; busy time past the clamp carries into
  the next window, so the series sums to the count's busy time.  Only
  the tick closes a window: a read between ticks (a mid-run snapshot)
  reports the open window and consumes nothing.

Determinism: probes fire in registration order at fixed simulated times,
and read only simulator state, so two runs with the same seed produce
byte-identical sample series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import ObserveError
from .metrics import MetricRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator

__all__ = [
    "DEFAULT_INTERVAL_NS",
    "MetricSampler",
    "TimeSeries",
]

#: Default sampling period: 50 µs — fine enough to resolve per-port
#: queue oscillations at the paper's packet timescales (a 1 KB packet
#: serialises in ~82 µs), coarse enough to stay cheap.
DEFAULT_INTERVAL_NS = 50_000


@dataclass
class TimeSeries:
    """One metric's sampled history: parallel time/value lists."""

    name: str
    unit: str = ""
    times: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, time_ns: int, value: float) -> None:
        self.times.append(time_ns)
        self.values.append(value)

    @property
    def mean(self) -> float:
        """Unweighted mean of the sampled values (0.0 when empty)."""
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else 0.0


class MetricSampler:
    """Drives periodic probes and accumulates their time series."""

    def __init__(self, sim: "Simulator", registry: MetricRegistry,
                 interval_ns: int = DEFAULT_INTERVAL_NS) -> None:
        if interval_ns < 1:
            raise ObserveError(
                f"sampling interval must be >= 1 ns, got {interval_ns}")
        self.sim = sim
        self.registry = registry
        self.interval_ns = int(interval_ns)
        self.series: dict[str, TimeSeries] = {}
        self._probes: list[tuple[Callable[[], float], TimeSeries]] = []
        #: Each utilization probe's window closer, run after every tick.
        self._windows: list[Callable[[], None]] = []
        self._started = False
        self.samples_taken = 0

    # ------------------------------------------------------------------
    # probe registration
    # ------------------------------------------------------------------

    def add_probe(self, name: str, fn: Callable[[], float],
                  description: str = "", unit: str = "") -> None:
        """Register an instantaneous-level probe sampled every tick."""
        self.registry.add(name, fn, unit=unit, description=description)
        series = self.series[name] = TimeSeries(name, unit)
        self._probes.append((fn, series))

    def add_utilization_probe(self, name: str,
                              count_fn: Callable[[], float],
                              busy_ns_per_unit: float,
                              description: str = "") -> None:
        """Register a busy-fraction probe over a monotonic unit count.

        ``count_fn`` must return a non-decreasing total (bytes sent,
        cycles consumed).  Each tick the count delta is converted to
        busy time via ``busy_ns_per_unit`` and normalised by the
        sampling interval.  A count can jump by more than one window
        holds (a fiber counts a packet's bytes when its tail leaves):
        the busy time past 100 % is carried into the following windows.
        """
        sim = self.sim
        # The open window: count and time at its start, busy time
        # carried into it.
        window = [float(count_fn()), sim.now, 0.0]

        def busy(current: float) -> float:
            return (current - window[0]) * busy_ns_per_unit + window[2]

        def fraction() -> float:
            span = sim.now - window[1]
            if span <= 0:
                return 0.0
            return min(max(busy(float(count_fn())) / span, 0.0), 1.0)

        def close() -> None:
            now = sim.now
            span = now - window[1]
            if span > 0:
                current = float(count_fn())
                window[:] = [current, now, max(busy(current) - span, 0.0)]

        self.add_probe(name, fraction, description, unit="fraction")
        self._windows.append(close)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def sample_now(self) -> None:
        """One tick: sample every probe at the current simulated time,
        then close every utilization window."""
        now = self.sim.now
        for read, series in self._probes:
            series.append(now, float(read()))
        for close in self._windows:
            close()
        self.samples_taken += 1

    def start(self) -> None:
        """Spawn the periodic sampling process (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.process(self._run(), name="observe.sampler")

    def _run(self):
        while True:
            yield self.interval_ns
            self.sample_now()

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------

    def means(self) -> dict[str, float]:
        """Mean sampled value per series (sorted by name)."""
        return {name: self.series[name].mean
                for name in sorted(self.series)}
