"""Exporters: Chrome/Perfetto trace JSON and JSONL metric dumps.

Any observed run can be handed to a standard trace viewer: the Chrome
``trace_event`` format (the JSON array-of-events dialect, also read by
Perfetto's legacy importer via ui.perfetto.dev → "Open trace file")
carries

* one metadata event per event source naming its track,
* one instant event (``"ph": "i"``) per :class:`~repro.sim.trace.TraceRecord`,
* one counter event (``"ph": "C"``) per sampled
  :class:`~repro.observe.sampler.TimeSeries` point, which Perfetto
  renders as stacked counter tracks (queue depths, utilizations).

Timestamps are microseconds (the format's unit), converted from the
simulator's integer nanoseconds; sub-microsecond resolution survives as
fractional ``ts`` values.

The JSONL dump is line-oriented so benchmark tooling can stream it:
every line is one self-contained JSON object with a ``"type"``
discriminator.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.trace import TraceRecord
    from .sampler import TimeSeries

__all__ = [
    "chrome_trace",
    "series_rows",
    "write_chrome_trace",
    "write_metrics_jsonl",
]

#: pid reserved for sampled counter tracks in the Chrome trace.
_METRICS_TRACK = "metrics"


def _jsonable(value: Any) -> Any:
    """Clamp arbitrary trace-record field values to JSON scalars."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def chrome_trace(records: Iterable["TraceRecord"],
                 series: Optional[Mapping[str, "TimeSeries"]] = None
                 ) -> dict[str, Any]:
    """Build a Chrome ``trace_event`` document from records and series.

    Returns the JSON-serialisable dict (``{"traceEvents": [...]}``); use
    :func:`write_chrome_trace` to put it on disk.
    """
    records = list(records)
    sources = sorted({record.source for record in records})
    pids = {source: index + 1 for index, source in enumerate(sources)}
    metrics_pid = len(sources) + 1
    events: list[dict[str, Any]] = []
    for source, pid in pids.items():
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": source}})
    if series:
        events.append({"name": "process_name", "ph": "M",
                       "pid": metrics_pid, "tid": 0,
                       "args": {"name": _METRICS_TRACK}})
    for record in records:
        events.append({
            "name": record.kind,
            "ph": "i",
            "ts": record.time / 1000.0,
            "pid": pids[record.source],
            "tid": 0,
            "s": "t",
            "args": {key: _jsonable(value)
                     for key, value in record.fields.items()},
        })
    if series:
        for name in sorted(series):
            track = series[name]
            for time_ns, value in zip(track.times, track.values):
                events.append({
                    "name": name,
                    "ph": "C",
                    "ts": time_ns / 1000.0,
                    "pid": metrics_pid,
                    "args": {"value": value},
                })
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(path, records: Iterable["TraceRecord"],
                       series: Optional[Mapping[str, "TimeSeries"]] = None
                       ) -> int:
    """Write a Chrome trace JSON file; returns the event count."""
    document = chrome_trace(records, series)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return len(document["traceEvents"])


def series_rows(series: Mapping[str, "TimeSeries"]
                ) -> Iterable[dict[str, Any]]:
    """Flatten sampled series into JSONL-ready ``"sample"`` rows."""
    for name in sorted(series):
        track = series[name]
        for time_ns, value in zip(track.times, track.values):
            yield {"type": "sample", "metric": name, "unit": track.unit,
                   "time_ns": time_ns, "value": value}


def write_metrics_jsonl(path, rows: Iterable[Mapping[str, Any]]) -> int:
    """Write one JSON object per line; returns the line count."""
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True))
            handle.write("\n")
            written += 1
    return written
