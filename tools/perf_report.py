#!/usr/bin/env python3
"""Render and compare ``BENCH_engine.json`` / ``BENCH_scaleout.json``.

Usage::

    python tools/perf_report.py BENCH_engine.json
    python tools/perf_report.py BENCH_scaleout.json
    python tools/perf_report.py --compare old.json new.json [--min-ratio 2.0]

The single-file form prints every run the document carries (the file
accumulates runs, e.g. ``pre-pr-baseline`` then ``optimized``) and the
speedup of the last run over the first.  A scale-out document instead
renders one row per partition count with its steady-state speedup over
the single-process reference (``n/a`` where the capture withheld it:
fewer CPUs than partitions) and where its CPU went: workers inside
``run`` (``compute_s``), workers moving envelopes (``ipc_s``), the
coordinator (``coord_cpu_s``) — ``-`` for a capture that predates the
last two.
``--compare`` lines up one run from each of two engine files by wall
time (``old wall_s / new wall_s``; event counts are shown beside it for
information, since a change may remove events).  A scenario whose
``result_digest`` differs between the two runs always exits 1; pass
``--min-ratio`` — as CI's perf-smoke job does — to also turn a
shortfall, or a scenario with no comparable wall time, into a non-zero
exit.  This is the repo's only run comparator.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Optional

SCHEMA = "nectar-bench-engine/1"
SCHEMA_SCALEOUT = "nectar-bench-scaleout/1"


def load(path: str, schemas: tuple[str, ...] = (SCHEMA,
                                                SCHEMA_SCALEOUT)) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") not in schemas:
        raise SystemExit(f"{path}: unexpected schema "
                         f"{document.get('schema')!r} "
                         f"(want one of {', '.join(schemas)})")
    return document


def pick_run(document: dict[str, Any], label: Optional[str],
             path: str) -> tuple[str, dict[str, Any]]:
    runs = document.get("runs", {})
    if not runs:
        raise SystemExit(f"{path}: no runs recorded")
    if label is None:
        label = list(runs)[-1]
    if label not in runs:
        raise SystemExit(f"{path}: no run labelled {label!r} "
                         f"(has: {', '.join(runs)})")
    return label, runs[label]["scenarios"]


def render_table(rows: list[tuple[str, ...]], headers: tuple[str, ...]) -> str:
    widths = [max(len(str(cell)) for cell in column)
              for column in zip(headers, *rows)]
    def fmt(row):
        return "  ".join(str(cell).rjust(width) if index else
                         str(cell).ljust(width)
                         for index, (cell, width) in
                         enumerate(zip(row, widths)))
    rule = "  ".join("-" * width for width in widths)
    return "\n".join([fmt(headers), rule] + [fmt(row) for row in rows])


def show_scaleout(path: str, document: dict[str, Any]) -> int:
    host = document.get("host", {})
    print(f"{path} (seed {document.get('seed')}, "
          f"{host.get('cpus', '?')} cpu(s), "
          f"best of {document.get('repeats', '?')} interleaved):")
    for name, data in sorted(document.get("scenarios", {}).items()):
        single = data["single"]
        print(f"\n{name}: {data['events']:,} events, single-process "
              f"wall {single['wall_s']:.4f}s "
              f"(+{single['setup_s']:.4f}s setup), "
              f"digest {data['digest'][:12]}")
        rows = []
        for run in data.get("partitioned", []):
            rows.append((f"p{run['partitions']}",
                         f"{run['wall_s']:.4f}",
                         f"{run['setup_s']:.4f}",
                         str(run["rounds"]),
                         str(run["advances"]),
                         *(f"{run[key]:.4f}" if key in run else "-"
                           for key in ("compute_s", "ipc_s",
                                       "coordinator_cpu_s")),
                         "n/a" if run["speedup"] is None
                         else f"{run['speedup']:.2f}x",
                         "yes" if run.get("digest_match", True) else "NO"))
        if rows:
            print(render_table(
                rows, ("parts", "wall_s", "setup_s", "rounds",
                       "advances", "compute_s", "ipc_s", "coord_cpu_s",
                       "speedup", "digest=")))
    against = document.get("interleaved_against")
    if against:
        print(f"\ninterleaved against: {against['what']}")
        print(f"single-process wall {against['single']['wall_s']:.4f}s; "
              + "; ".join(f"p{run['partitions']} {run['wall_s']:.4f}s"
                          for run in against["partitioned"]))
    return 0


def show_document(path: str) -> int:
    document = load(path)
    if document.get("schema") == SCHEMA_SCALEOUT:
        return show_scaleout(path, document)
    runs = document.get("runs", {})
    print(f"{path} (seed {document.get('seed')}):")
    for label, run in runs.items():
        scenarios = run["scenarios"]
        rows = [(name,
                 f"{data['events']:,}",
                 f"{data['wall_s']:.4f}",
                 f"{data['events_per_sec']:,.0f}",
                 data.get("result_digest", data.get("digest", ""))[:12])
                for name, data in sorted(scenarios.items())]
        print(f"\nrun: {label}")
        print(render_table(
            rows, ("scenario", "events", "wall_s", "events/sec", "digest")))
    if len(runs) >= 2:
        labels = list(runs)
        print(f"\nspeedup {labels[-1]!r} over {labels[0]!r}:")
        compare_runs(runs[labels[0]]["scenarios"],
                     runs[labels[-1]]["scenarios"])
    return 0


def wall_speedup(old: dict[str, Any], new: dict[str, Any]) -> Optional[float]:
    """``old wall_s / new wall_s`` for one scenario, or ``None``.

    Wall time, not events/s: a change that removes agenda entries lowers
    the event rate while it lowers the wall time.  ``None`` when the two
    runs did not simulate the same thing (``sim_ns`` differ) or a wall
    time is zero — there is no ratio to gate on then, and the gate must
    say so instead of passing.
    """
    if old["sim_ns"] != new["sim_ns"] \
            or not (old["wall_s"] > 0 and new["wall_s"] > 0):  # nan too
        return None
    return old["wall_s"] / new["wall_s"]


def compare_runs(old: dict[str, Any], new: dict[str, Any],
                 min_ratio: Optional[float] = None) -> int:
    shared = sorted(set(old) & set(new))
    if not shared:
        raise SystemExit("no scenarios in common")
    rows = []
    ratios = {name: wall_speedup(old[name], new[name]) for name in shared}
    for name in shared:
        ratio = ratios[name]
        if "result_digest" in old[name] and "result_digest" in new[name]:
            same = "yes" if old[name]["result_digest"] \
                == new[name]["result_digest"] else "NO"
        else:
            same = "n/a"  # one side predates the result/schedule split
        rows.append((name,
                     f"{old[name]['wall_s']:.4f}",
                     f"{new[name]['wall_s']:.4f}",
                     "n/a" if ratio is None else f"{ratio:.2f}x",
                     f"{old[name]['events']:,}",
                     f"{new[name]['events']:,}", same))
    print(render_table(
        rows, ("scenario", "old wall_s", "new wall_s", "speedup",
               "old events", "new events", "digest=")))
    measured = [ratio for ratio in ratios.values() if ratio is not None]
    if measured:
        aggregate = math.exp(sum(map(math.log, measured)) / len(measured))
        print(f"aggregate speedup (geometric mean over {len(measured)} "
              f"scenarios): {aggregate:.2f}x")
    for name in sorted(set(old) ^ set(new)):
        side = "old" if name in old else "new"
        print(f"  ({name}: only in {side})")
    status = 0
    for name, *_cells, same in rows:
        if same == "NO":
            print(f"FAIL: {name}: result digest changed (a win that "
                  f"changes behaviour is a bug, not a speedup)")
            status = 1
    if min_ratio is None:
        return status
    for name, ratio in ratios.items():
        if ratio is None:
            print(f"FAIL: {name}: no wall-time ratio (sim_ns differ or a "
                  f"wall time is 0)")
            status = 1
        elif ratio < min_ratio:
            print(f"FAIL: {name}: speedup {ratio:.2f}x < required "
                  f"{min_ratio}x")
            status = 1
    return status


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+",
                        help="one document to render, or two with --compare")
    parser.add_argument("--compare", action="store_true",
                        help="compare two documents: OLD NEW")
    parser.add_argument("--label", default=None,
                        help="run label to compare (default: last in file)")
    parser.add_argument("--old-label", default=None,
                        help="run label for the OLD file only "
                             "(overrides --label)")
    parser.add_argument("--new-label", default=None,
                        help="run label for the NEW file only "
                             "(overrides --label)")
    parser.add_argument("--min-ratio", type=float, default=None,
                        help="fail (exit 1) if any scenario's wall-time "
                             "speedup is below this or cannot be computed")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.paths) != 2:
            parser.error("--compare needs exactly two files: OLD NEW")
        old_label, old = pick_run(load(args.paths[0], (SCHEMA,)),
                                  args.old_label or args.label,
                                  args.paths[0])
        new_label, new = pick_run(load(args.paths[1], (SCHEMA,)),
                                  args.new_label or args.label,
                                  args.paths[1])
        print(f"compare {args.paths[0]}[{old_label}] -> "
              f"{args.paths[1]}[{new_label}]:")
        return compare_runs(old, new, args.min_ratio)
    if len(args.paths) != 1:
        parser.error("render mode takes exactly one file")
    return show_document(args.paths[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
