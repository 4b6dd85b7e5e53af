"""Metric primitives: counters, gauges, and their registry.

The prototype HUB's instrumentation board (§4.1) accumulates event counts
in hardware registers that a supervisor reads out.  This module is the
software generalisation: components register named metrics at build time,
the :class:`~repro.observe.sampler.MetricSampler` turns them into time
series, and the exporters in :mod:`repro.observe.export` dump everything
for offline analysis.

Two metric kinds cover every consumer in the repository:

* :class:`Counter` — a monotonically increasing count (packets forwarded,
  retransmissions).
* :class:`Gauge` — an instantaneous level, either set explicitly or read
  on demand from a probe callable (queue depth, ready bit, channel busy).

Registration is strict: a :class:`MetricRegistry` rejects duplicate
names, so two components can never silently share (and double-count) one
metric.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from ..errors import ObserveError

__all__ = [
    "Counter",
    "Gauge",
    "Metric",
    "MetricRegistry",
]


class Metric:
    """Base class: a named, unit-annotated measurement."""

    kind = "metric"

    def __init__(self, name: str, description: str = "",
                 unit: str = "") -> None:
        if not name:
            raise ObserveError("metric name must be non-empty")
        self.name = name
        self.description = description
        self.unit = unit

    def value(self) -> Any:
        """The metric's current value (kind-specific)."""
        raise NotImplementedError

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serialisable dump of the metric's current state."""
        return {
            "name": self.name,
            "kind": self.kind,
            "unit": self.unit,
            "value": self.value(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}={self.value()!r}>"


class Counter(Metric):
    """A monotonically increasing event count."""

    kind = "counter"

    def __init__(self, name: str, description: str = "",
                 unit: str = "") -> None:
        super().__init__(name, description, unit)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ObserveError(
                f"counter {self.name}: negative increment {amount}")
        self._value += amount

    def value(self) -> int:
        return self._value


class Gauge(Metric):
    """An instantaneous level: set explicitly, or probed on read.

    With ``fn`` given the gauge is *probed*: every :meth:`value` call
    re-evaluates the callable against live component state, which is what
    the periodic sampler relies on.
    """

    kind = "gauge"

    def __init__(self, name: str, description: str = "", unit: str = "",
                 fn: Optional[Callable[[], float]] = None) -> None:
        super().__init__(name, description, unit)
        self._value: float = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ObserveError(
                f"gauge {self.name} is probe-backed; cannot set directly")
        self._value = value

    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class MetricRegistry:
    """The per-system namespace of metrics.

    Components call :meth:`counter`/:meth:`gauge` (or
    :meth:`register` with a pre-built metric) at build time; duplicate
    names raise :class:`~repro.errors.ObserveError` so a metric can never
    be silently double-registered.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def register(self, metric: Metric) -> Metric:
        """Add ``metric``; raises on a duplicate name."""
        if metric.name in self._metrics:
            raise ObserveError(f"duplicate metric name {metric.name!r}")
        self._metrics[metric.name] = metric
        return metric

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    def counter(self, name: str, description: str = "",
                unit: str = "") -> Counter:
        metric = Counter(name, description, unit)
        self.register(metric)
        return metric

    def gauge(self, name: str, description: str = "", unit: str = "",
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        metric = Gauge(name, description, unit, fn=fn)
        self.register(metric)
        return metric

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise ObserveError(f"no metric named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Metric]:
        for name in self.names():
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Current values of every metric, keyed by name (sorted)."""
        return {metric.name: metric.snapshot() for metric in self}
