#!/usr/bin/env python3
"""Sweep the e2e workloads' result fingerprints over many seeds.

Usage::

    python tools/result_sweep.py --seeds 1989,4242,1..16 --out A.json
    python tools/result_sweep.py --seeds 1989,7 --scale 0.2 --out B.json
    python tools/result_sweep.py --compare A.json B.json

The gate for a change that is allowed to move the *schedule* (how many
agenda entries a run takes) but not any *result*: one single-process
drive of ``smallmsg-hub``, ``rpc-faulted`` and ``bulk-wire`` per seed,
written as ``{workload: {seed: {"events": n, "digests": {aspect:
hash}}}}``.  The workloads are ``benchmarks/e2e/workloads.py``, imported
read-only; the digests are ``Outcome.digests()``, the per-aspect hashes
``benchmarks/e2e/expected.json`` pins for two seeds.  ``--compare``
lists every (workload, seed, aspect) whose digest differs between two
sweeps and exits 1 if any does; event counts are shown, never compared.

The partitioned path gets its own leg, ``escl-torus-64``: per seed (the
seed picks the message size, as ``torus-p2`` does) the single-process
run, clean and under the ``drop-burst`` campaign, then every cell of
partitions {2, 4} x faults {none, drop-burst}.  Each cell's digest —
and, when clean, its event count — must equal the single-process one of
the same seed; a cell that does not is printed as ``PARITY ...`` and
the sweep exits 1.  The row keeps one digest per
cell, so ``--compare`` also catches both shapes moving together.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("smallmsg-hub", "rpc-faulted", "bulk-wire")
PARTITIONED = "escl-torus-64"
#: The partitioned leg's cells: (partitions, fault campaign).
CELLS = tuple((partitions, faults) for partitions in (2, 4)
              for faults in (None, "drop-burst"))

Sweep = dict[str, dict[str, dict[str, Any]]]


def parse_seeds(text: str) -> list[int]:
    """``"1989,4242,1..16"`` -> the seeds in order, duplicates dropped."""
    seeds: list[int] = []
    for part in text.split(","):
        first, dots, last = part.partition("..")
        span = range(int(first), int(last) + 1) if dots else [int(first)]
        seeds += [seed for seed in span if seed not in seeds]
    return seeds


def load_workloads() -> dict[str, Any]:
    """The e2e workload classes (the benchmark finds ``src/`` the same way)."""
    for path in (REPO_ROOT / "src", REPO_ROOT / "benchmarks" / "e2e"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from workloads import WORKLOADS
    return WORKLOADS


def sweep(seeds: list[int], scale: float) -> Sweep:
    """Drive each of the three workloads once per seed, single-process."""
    workloads = load_workloads()
    result: Sweep = {}
    for name in WORKLOAD_NAMES:
        rows = result[name] = {}
        for seed in seeds:
            _system, drive = workloads[name](seed, scale).build()
            outcome = drive(None)
            rows[str(seed)] = {"events": outcome.events,
                               "digests": outcome.digests()}
    return result


def sweep_partitioned(seeds: list[int], scale: float,
                      cells=CELLS) -> tuple[dict[str, Any], list[str]]:
    """``(rows, broken)``: the partitioned leg's rows, one digest per
    run shape, and a line per cell that left the single-process run."""
    load_workloads()
    from repro.scaleout import (escl_campaign, run_partitioned, run_single,
                                scenarios)
    base = scenarios()[PARTITIONED]
    rows: dict[str, Any] = {}
    broken = []
    for seed in seeds:
        scenario = replace(
            base, name=f"{PARTITIONED}-s{seed}",
            messages_per_cab=max(1, round(base.messages_per_cab * scale)),
            message_bytes=504 + random.Random(f"{seed}:torus").randrange(17))
        scenarios()[scenario.name] = scenario  # workers look it up by name
        campaigns: dict[Optional[str], Any] = {None: None}
        campaigns.update((faults, escl_campaign(faults, scenario.config()))
                         for _partitions, faults in cells if faults)
        single = {faults: run_single(scenario, faults=campaign)
                  for faults, campaign in campaigns.items()}
        digests = {f"single+{faults}" if faults else "single": run.digest
                   for faults, run in single.items()}
        for partitions, faults in cells:
            run = run_partitioned(scenario, partitions,
                                  faults=campaigns[faults])
            cell = f"p{partitions}" + (f"+{faults}" if faults else "")
            digests[cell] = run.digest
            problem = run.mismatch(single[faults], campaigns[faults])
            if problem:
                broken.append(
                    f"PARITY {PARTITIONED} seed {seed} {cell}: {problem}")
        rows[str(seed)] = {"events": single[None].events, "digests": digests}
    return rows, broken


def moved(old: Sweep, new: Sweep) -> list[tuple[str, str, str]]:
    """Every (workload, seed, aspect) present in both whose digest differs,
    plus ``"missing"`` for a run or aspect only one side has."""
    moves = []
    for name in sorted(set(old) | set(new)):
        seeds = set(old.get(name, {})) | set(new.get(name, {}))
        for seed in sorted(seeds, key=int):
            before = old.get(name, {}).get(seed)
            after = new.get(name, {}).get(seed)
            if before is None or after is None:
                moves.append((name, seed, "missing"))
                continue
            aspects = set(before["digests"]) | set(after["digests"])
            moves += [(name, seed, aspect) for aspect in sorted(aspects)
                      if before["digests"].get(aspect)
                      != after["digests"].get(aspect)]
    return moves


def compare(old: Sweep, new: Sweep) -> int:
    moves = moved(old, new)
    for name in sorted(set(old) & set(new)):
        shared = sorted(set(old[name]) & set(new[name]), key=int)
        before = sum(old[name][seed]["events"] for seed in shared)
        after = sum(new[name][seed]["events"] for seed in shared)
        changed = {seed for workload, seed, _ in moves if workload == name}
        ratio = f"x{after / before:.3f}" if before else "n/a"
        print(f"{name:14s} {len(shared):3d} seeds  {len(changed):3d} moved  "
              f"events {before:>11,} -> {after:>11,}  ({ratio})")
    for name, seed, aspect in moves:
        print(f"MOVED {name} seed {seed}: {aspect}")
    print(f"{len(moves)} fingerprint aspect(s) moved")
    return 1 if moves else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1989,4242,1..16",
                        help="comma list with A..B ranges")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size factor (1 = the benchmark's)")
    parser.add_argument("--out", help="write the sweep to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="list what moved between two sweeps")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(path).read_text())
                    for path in args.compare)
        return compare(old, new)
    if not args.out:
        parser.error("--out FILE is required when sweeping")
    seeds = parse_seeds(args.seeds)
    result = sweep(seeds, args.scale)
    result[PARTITIONED], broken = sweep_partitioned(seeds, args.scale)
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True)
                              + "\n")
    for name, rows in result.items():
        print(f"{name:14s} {len(rows):3d} seeds  "
              f"{sum(row['events'] for row in rows.values()):>11,} events")
    print("\n".join(broken) or f"{PARTITIONED}: {len(CELLS)} partitioned "
          f"cells per seed equal single-process")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
