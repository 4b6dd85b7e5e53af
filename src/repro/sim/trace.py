"""Event tracing — the software analogue of Nectar's instrumentation board.

The prototype HUB backplane accepts an instrumentation board that monitors
and records events related to the crossbar and its controller (§4.1).
:class:`Tracer` plays that role for the whole simulation: components emit
typed records, and tests/benchmarks query them afterwards.  The exporters
in :mod:`repro.observe.export` turn the same records into Chrome/Perfetto
trace files.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence."""

    time: int
    source: str
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]


class Tracer:
    """Collects :class:`TraceRecord` objects from instrumented components.

    Tracing is off by default (zero overhead beyond one predicate check);
    enable globally or per-kind.  A bounded ``limit`` turns the buffer
    into a true ring: once full, each new record evicts the **oldest**
    one in O(1) (the buffer is a ``deque`` with ``maxlen``), and
    :attr:`dropped` counts the evictions so consumers can tell a
    truncated history from a complete one.
    """

    def __init__(self, sim: "Simulator", enabled: bool = False,
                 limit: Optional[int] = None) -> None:
        self.sim = sim
        self.enabled = enabled
        self._records: deque[TraceRecord] = deque(maxlen=limit)
        #: Records evicted from the ring so far (0 when unbounded).
        self.dropped = 0
        self._kind_filter: Optional[set[str]] = None

    @property
    def limit(self) -> Optional[int]:
        """The ring capacity, or None when the buffer is unbounded."""
        return self._records.maxlen

    def set_limit(self, limit: Optional[int]) -> None:
        """Re-bound the ring, keeping the newest records that still fit."""
        self._records = deque(self._records, maxlen=limit)

    @property
    def records(self) -> list[TraceRecord]:
        """The retained records, oldest first (a copy)."""
        return list(self._records)

    def enable(self, kinds: Optional[list[str]] = None) -> None:
        """Turn tracing on, optionally restricted to the given kinds."""
        self.enabled = True
        self._kind_filter = set(kinds) if kinds else None

    def record(self, source: str, kind: str, **fields: Any) -> None:
        """Emit a record (dropped unless tracing accepts this kind)."""
        if not self.enabled:
            return
        if self._kind_filter is not None and kind not in self._kind_filter:
            return
        entry = TraceRecord(self.sim.now, source, kind, fields)
        ring = self._records
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append(entry)

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0

    def count(self, source: Optional[str] = None) -> int:
        """Retained records, or only those from ``source``."""
        return sum(1 for entry in self._records
                   if source is None or entry.source == source)
