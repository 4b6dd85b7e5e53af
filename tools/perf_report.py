#!/usr/bin/env python3
"""Render and compare ``BENCH_engine.json`` / ``BENCH_scaleout.json``.

Usage::

    python tools/perf_report.py BENCH_engine.json
    python tools/perf_report.py BENCH_scaleout.json
    python tools/perf_report.py --compare old.json new.json [--min-ratio 2.0]

The single-file form prints every run the document carries (the file
accumulates runs, e.g. ``pre-pr-baseline`` then ``optimized``) and the
speedup of the last run over the first.  A scale-out document instead
renders the partitions x batch table with each
configuration's steady-state speedup over the single-process reference
(``n/a`` where the capture withheld it: fewer CPUs than partitions).
``--compare`` lines up one run from each of two engine files — CI's
perf-smoke job uses it report-only; pass ``--min-ratio`` to turn a
shortfall into a non-zero exit instead.
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
                         str(run["batch"]),
                         f"{run['wall_s']:.4f}",
                         f"{run['setup_s']:.4f}",
                         str(run["rounds"]),
                         str(run["advances"]),
                         "n/a" if run["speedup"] is None
                         else f"{run['speedup']:.2f}x",
                         "yes" if run.get("digest_match", True) else "NO"))
        if rows:
            print(render_table(
                rows, ("parts", "batch", "wall_s", "setup_s", "rounds",
                       "advances", "speedup", "digest=")))
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
                 data["digest"][:12])
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


def compare_runs(old: dict[str, Any], new: dict[str, Any],
                 min_ratio: Optional[float] = None) -> int:
    shared = sorted(set(old) & set(new))
    if not shared:
        raise SystemExit("no scenarios in common")
    rows = []
    worst = float("inf")
    log_sum = 0.0
    for name in shared:
        ratio = (new[name]["events_per_sec"] / old[name]["events_per_sec"]
                 if old[name]["events_per_sec"] else float("nan"))
        worst = min(worst, ratio)
        log_sum += math.log(ratio) if ratio > 0 else float("-inf")
        same = "yes" if old[name]["digest"] == new[name]["digest"] else "NO"
        rows.append((name,
                     f"{old[name]['events_per_sec']:,.0f}",
                     f"{new[name]['events_per_sec']:,.0f}",
                     f"{ratio:.2f}x", same))
    print(render_table(
        rows, ("scenario", "old ev/s", "new ev/s", "speedup", "digest=")))
    aggregate = math.exp(log_sum / len(shared))
    print(f"aggregate speedup (geometric mean over {len(shared)} "
          f"scenarios): {aggregate:.2f}x")
    for name in sorted(set(old) ^ set(new)):
        side = "old" if name in old else "new"
        print(f"  ({name}: only in {side})")
    if min_ratio is not None and worst < min_ratio:
        print(f"FAIL: worst speedup {worst:.2f}x < required {min_ratio}x")
        return 1
    return 0


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
                        help="fail (exit 1) if any scenario's speedup "
                             "is below this")
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
