"""The metric registry: one table of named reads.

The prototype HUB's instrumentation board (§4.1) accumulates event counts
in hardware registers that a supervisor reads out.  This module is the
software generalisation: components register named metrics at build time,
the :class:`~repro.observe.sampler.MetricSampler` turns them into time
series, and the exporters in :mod:`repro.observe.export` dump everything
for offline analysis.

A metric is a name and a read: the registry maps ``name`` to ``(kind,
unit, description, read)``, where ``read`` is a zero-argument callable
and a metric's value is ``float(read())``.  ``kind`` is ``"gauge"`` for
an instantaneous level (queue depth, ready bit, channel busy) and
``"counter"`` for a count a run ends with (rounds, envelopes routed).

Registration is strict: a :class:`MetricRegistry` rejects duplicate
names, so two components can never silently share (and double-count) one
metric.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import ObserveError

__all__ = ["MetricRegistry"]


class MetricRegistry:
    """The per-system namespace of metrics.

    Components (through their sampler) call :meth:`add` at build time;
    an empty or duplicate name raises
    :class:`~repro.errors.ObserveError`, so a metric can never be
    silently double-registered.
    """

    def __init__(self) -> None:
        self._entries: dict[str, tuple[str, str, str,
                                       Callable[[], Any]]] = {}

    def add(self, name: str, read: Callable[[], Any], *,
            kind: str = "gauge", unit: str = "",
            description: str = "") -> None:
        """Enter ``read`` under ``name``; raises on a bad or taken name."""
        if not name:
            raise ObserveError("metric name must be non-empty")
        if name in self._entries:
            raise ObserveError(f"duplicate metric name {name!r}")
        self._entries[name] = (kind, unit, description, read)

    def value(self, name: str) -> float:
        """The current value of the metric ``name``."""
        try:
            read = self._entries[name][3]
        except KeyError:
            raise ObserveError(f"no metric named {name!r}") from None
        return float(read())

    def names(self) -> list[str]:
        return sorted(self._entries)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Current values of every metric, keyed by name (sorted)."""
        return {name: {"name": name, "kind": kind, "unit": unit,
                       "value": float(read())}
                for name, (kind, unit, _description, read)
                in sorted(self._entries.items())}
