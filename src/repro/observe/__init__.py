"""Observability: metrics, periodic samplers, and trace exporters.

The paper's prototype HUB carries an instrumentation board that
"monitors and records events related to the crossbar and its controller"
(§4.1).  :mod:`repro.sim.trace` reproduces the *recording* half; this
package adds the *analysis* half — the utilization, queueing and latency
views the paper's Figures 6–7 discussion depends on — and generalises it
to the whole stack:

* :mod:`~repro.observe.metrics` — the duplicate-rejecting
  :class:`~repro.observe.metrics.MetricRegistry`: a name and a read per
  metric.
* :mod:`~repro.observe.sampler` — periodic probe sampling as a simulator
  process (per-port queue depths, ready-bit occupancy, fiber
  utilization, DMA/VME busy fractions, mailbox depths, retransmits).
* :mod:`~repro.observe.export` — Chrome/Perfetto ``trace_event`` JSON,
  JSONL metric dumps.
* :mod:`~repro.observe.observatory` — the one-call wiring:
  ``system.observe()`` returns an
  :class:`~repro.observe.observatory.Observatory`.

Quickstart::

    from repro.topology import single_hub_system

    system = single_hub_system(4)
    observatory = system.observe()          # attach before traffic
    ...  # run traffic, system.run(...)
    observatory.export_chrome_trace("trace.json")   # open in Perfetto
    observatory.export_metrics_jsonl("metrics.jsonl")

See ``docs/OBSERVABILITY.md`` for the full guide and
``python -m repro observe --help`` for the CLI.
"""

from .export import (chrome_trace, series_rows, write_chrome_trace,
                     write_metrics_jsonl)
from .metrics import MetricRegistry
from .observatory import Observatory
from .sampler import DEFAULT_INTERVAL_NS, MetricSampler, TimeSeries

__all__ = [
    "DEFAULT_INTERVAL_NS",
    "MetricRegistry",
    "MetricSampler",
    "Observatory",
    "TimeSeries",
    "chrome_trace",
    "series_rows",
    "write_chrome_trace",
    "write_metrics_jsonl",
]
