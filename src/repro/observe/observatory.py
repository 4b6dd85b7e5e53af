"""The whole-system observer: wiring, snapshots, and export.

:class:`Observatory` is what `NectarSystem.observe()
<repro.system.builder.NectarSystem.observe>` returns: it builds a
:class:`~repro.observe.metrics.MetricRegistry` and a periodic
:class:`~repro.observe.sampler.MetricSampler`, asks every component in
the system to register its metrics (HUB ports, fibers, DMA and VME
channels, mailboxes, transports, datalinks), optionally turns on event
tracing, and exposes one-call exporters.

Attach it **before** running traffic — samplers are simulator processes
and probes only see what happens after they start.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .export import series_rows, write_chrome_trace, write_metrics_jsonl
from .metrics import MetricRegistry
from .sampler import DEFAULT_INTERVAL_NS, MetricSampler

if TYPE_CHECKING:  # pragma: no cover
    from ..system.builder import NectarSystem

__all__ = ["Observatory"]

#: Ring-buffer bound applied to the tracer when the Observatory enables
#: tracing and the tracer has no limit yet: long runs keep the most
#: recent events instead of exhausting memory.
DEFAULT_TRACE_LIMIT = 200_000


class Observatory:
    """Metrics + tracing for one built :class:`NectarSystem`."""

    def __init__(self, system: "NectarSystem",
                 interval_ns: int = DEFAULT_INTERVAL_NS,
                 trace: bool = True) -> None:
        self.system = system
        self.registry = MetricRegistry()
        self.sampler = MetricSampler(system.sim, self.registry, interval_ns)
        if trace:
            if system.tracer.limit is None:
                system.tracer.set_limit(DEFAULT_TRACE_LIMIT)
            system.tracer.enable()
        for hub in system.hubs.values():
            hub.register_metrics(self.sampler)
        for stack in system.cabs.values():
            stack.register_metrics(self.sampler)
        if system.fault_injector is not None:
            system.fault_injector.register_metrics(self.sampler)
        if system.resilience is not None:
            system.resilience.register_metrics(self.sampler)
        self.sampler.start()

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------

    @property
    def series(self):
        """Sampled time series, keyed by metric name."""
        return self.sampler.series

    def snapshot(self) -> dict[str, Any]:
        """Current value of every registered metric, plus the clock."""
        return {
            "time_ns": self.system.sim.now,
            "metrics": self.registry.snapshot(),
        }

    def summary_rows(self) -> list[dict[str, Any]]:
        """JSONL-ready rows: every sample, then one final snapshot."""
        rows: list[dict[str, Any]] = list(series_rows(self.sampler.series))
        rows.append({"type": "snapshot", **self.snapshot()})
        return rows

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def export_chrome_trace(self, path) -> int:
        """Write a Perfetto-loadable trace; returns the event count."""
        return write_chrome_trace(path, self.system.tracer.records,
                                  self.sampler.series)

    def export_metrics_jsonl(self, path) -> int:
        """Write samples + final snapshot as JSONL; returns line count."""
        return write_metrics_jsonl(path, self.summary_rows())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Observatory metrics={len(self.sampler.series)} "
                f"samples={self.sampler.samples_taken}>")
