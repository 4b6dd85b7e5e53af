#!/usr/bin/env python3
"""The one writer and reader of the result pins.

Usage::

    python tools/result_sweep.py --repin
    python tools/result_sweep.py --seeds 1989,4242,1..16 --out A.json
    python tools/result_sweep.py --compare A.json B.json

A document is ``{cell: {seed: {"events": n, "digests": {aspect: value}}}}``.
A change may move ``events`` (agenda entries, a property of the
schedule); it may not move one digest.  ``--compare`` names every
(cell, seed, aspect) that differs and exits 1 if any does.  Every sweep
writes three kinds of cell:

* the e2e rows: one single-process drive per seed of ``smallmsg-hub``,
  ``rpc-faulted`` and ``bulk-wire`` (``benchmarks/e2e/workloads.py``,
  imported read-only), digested by ``Outcome.digests()``;
* the partitioned leg, ``escl-torus-64`` (whose cut no route crosses)
  and ``escl-hypercube-64`` (whose every flow crosses it) per seed (the
  seed picks the message size, as ``torus-p2`` does): single-process
  clean and under ``drop-burst``, then partitions {2, 4} x the same
  faults, each held to the single-process run (digest, and event count
  when clean);
* the table cells at seed 1989: ``hotspot`` and ``fault-campaign`` run
  traced (their timelines are the goldens), the three E-COL collective
  paths, the two E-SCL tori and the 6-cube; ``scaleout-torus-64`` (whose
  cut no route crosses) and ``scaleout-hypercube-64`` (whose every flow
  crosses) also pin their 2- and 4-partition runs' rounds / advances /
  envelopes exactly.

A failed operation exits 1 before anything is written; a ``PARITY`` line
exits 1 too.  ``--repin`` writes the document at ``PIN_SEEDS`` x
``PIN_SCALE`` to ``tests/data/pins.json`` and the goldens beside it.
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
PINS = REPO_ROOT / "tests" / "data" / "pins.json"
PIN_SEEDS = (1989, 4242, 7)
PIN_SCALE = 0.2
WORKLOAD_NAMES = ("smallmsg-hub", "rpc-faulted", "bulk-wire")
#: The partitioned leg's scenarios: one cut no route crosses, one every
#: flow crosses (boundary fibers, envelopes, faults across the cut).
PARTITIONED = ("escl-torus-64", "escl-hypercube-64")
#: The partitioned leg's cells: (partitions, fault campaign).
CELLS = tuple((partitions, faults) for partitions in (2, 4)
              for faults in (None, "drop-burst"))
TABLE_SEED = 1989
#: The table cells with a golden timeline.
GOLDEN = ("hotspot", "fault-campaign")
#: Table cell -> (scale-out scenario, partition counts whose rounds /
#: advances / envelopes the cell pins).  Not tori only: the 6-cube's
#: cut is crossed by every flow, the torus cuts by none.
TORI = {"scaleout-torus-64": ("escl-torus-64", (2, 4)),
        "scaleout-torus-256": ("escl-torus-256", ()),
        "scaleout-hypercube-64": ("escl-hypercube-64", (2, 4))}

Sweep = dict[str, dict[str, dict[str, Any]]]


def parse_seeds(text: str) -> list[int]:
    """``"1989,4242,1..16"`` -> the seeds in order, duplicates dropped."""
    seeds: list[int] = []
    for part in text.split(","):
        first, dots, last = part.partition("..")
        span = range(int(first), int(last) + 1) if dots else [int(first)]
        if not span:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds += [seed for seed in span if seed not in seeds]
    return seeds


def load_workloads() -> dict[str, Any]:
    """The e2e workload classes (the benchmark finds ``src/`` the same way)."""
    for path in (REPO_ROOT / "src", REPO_ROOT / "benchmarks" / "e2e"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from workloads import WORKLOADS
    return WORKLOADS


def row(events: int, sim_ns: int, fingerprint: dict[str, Any]) -> dict:
    """A table cell's row: one hash per fingerprint aspect and the clock."""
    from workloads import short_hash
    aspects = {**fingerprint, "sim_ns": sim_ns}
    return {"events": events, "digests": {
        key: short_hash(value) for key, value in aspects.items()}}


def run_workload(name: str, seed: int, scale: float):
    """One single-process drive of an e2e workload; exits naming the
    cell, the seed and the failure if any operation failed."""
    _system, drive = load_workloads()[name](seed, scale).build()
    outcome = drive(None)
    if outcome.ops_failed:
        raise SystemExit(f"FAILED {name} seed {seed}: {outcome.ops_failed} "
                         f"operation(s) failed: {outcome.failure}")
    return outcome


def sweep(seeds: list[int], scale: float) -> Sweep:
    """Drive each of the three workloads once per seed, single-process."""
    result: Sweep = {}
    for name in WORKLOAD_NAMES:
        rows = result[name] = {}
        for seed in seeds:
            outcome = run_workload(name, seed, scale)
            rows[str(seed)] = {"events": outcome.events,
                               "digests": outcome.digests()}
    return result


def sweep_partitioned(name: str, seeds: list[int],
                      scale: float) -> tuple[dict[str, Any], list[str]]:
    """``(rows, broken)``: scenario ``name``'s partitioned rows, one
    digest per run shape, and a line per cell that left the
    single-process run."""
    load_workloads()
    from repro.scaleout import (escl_campaign, run_partitioned, run_single,
                                scenarios)
    base = scenarios()[name]
    rows: dict[str, Any] = {}
    broken = []
    for seed in seeds:
        scenario = replace(
            base, name=f"{name}-s{seed}",
            messages_per_cab=max(1, round(base.messages_per_cab * scale)),
            message_bytes=504 + random.Random(f"{seed}:torus").randrange(17))
        campaigns: dict[Optional[str], Any] = {None: None}
        campaigns.update((faults, escl_campaign(faults, scenario.config()))
                         for _partitions, faults in CELLS if faults)
        single = {faults: run_single(scenario, faults=campaign)
                  for faults, campaign in campaigns.items()}
        digests = {f"single+{faults}" if faults else "single": run.digest
                   for faults, run in single.items()}
        for partitions, faults in CELLS:
            run = run_partitioned(scenario, partitions,
                                  faults=campaigns[faults])
            cell = f"p{partitions}" + (f"+{faults}" if faults else "")
            digests[cell] = run.digest
            problem = run.mismatch(single[faults], campaigns[faults])
            if problem:
                broken.append(
                    f"PARITY {name} seed {seed} {cell}: {problem}")
        rows[str(seed)] = {"events": single[None].events, "digests": digests}
    return rows, broken


def traced_cell(name: str) -> tuple[dict, list[list]]:
    """``(row, timeline)`` of a golden cell, from one traced run: open-loop
    hotspot traffic on 6 CABs, or closed-loop RPCs on 4 CABs through a
    drop-burst campaign.  Tracing moves neither result nor event count."""
    load_workloads()
    from repro.config import NectarConfig
    from repro.faults import build_campaign
    from repro.sim.units import ms
    from repro.topology import single_hub_system
    from repro.workload import Workload
    cfg = NectarConfig(seed=TABLE_SEED)
    faulted = name == "fault-campaign"
    system = single_hub_system(4 if faulted else 6, cfg=cfg)
    system.tracer.enable()
    if faulted:
        system.inject_faults(build_campaign("drop-burst", cfg))
        shape = dict(pattern="uniform", mode="closed", offered_load=0.2,
                     window_depth=2, warmup_ns=ms(1), duration_ns=ms(5),
                     drain_ns=ms(2))
    else:
        shape = dict(pattern="hotspot", mode="open", offered_load=0.35,
                     warmup_ns=ms(0.5), duration_ns=ms(3), drain_ns=ms(1))
    recorder = Workload(system, arrivals="poisson", message_bytes=512,
                        salt="bench", **shape).run().recorder
    fingerprint = {"sent": recorder.sent, "delivered": recorder.delivered,
                   "errors": recorder.errors, "final_now": system.now,
                   "hub_counters": {hub_name: dict(hub.counters) for
                                    hub_name, hub in system.hubs.items()}}
    if faulted:
        fingerprint["faults_injected"] = \
            system.fault_injector.counters["injected"]
    timeline = [[record.time, record.source, record.kind]
                for record in system.tracer.records]
    return row(system.sim.events_processed, system.now, fingerprint), timeline


def table() -> tuple[Sweep, list[str], dict[str, list[list]]]:
    """``(rows, broken, timelines)`` of the fixed-seed table cells."""
    load_workloads()
    from repro.scaleout import run_partitioned, run_single, scenarios
    from repro.workload.experiments import run_collective
    rows: dict[str, Any] = {}
    broken: list[str] = []
    timelines = {}
    for name in GOLDEN:
        rows[name], timelines[name] = traced_cell(name)
    for mode in ("hub", "tree", "exchange"):
        rows[f"collective-{mode}"] = row(*run_collective(mode))
    for name, (scenario, partition_counts) in TORI.items():
        single = run_single(scenarios()[scenario])
        rows[name] = row(single.events, single.sim_ns, single.fingerprint)
        for partitions in partition_counts:
            run = run_partitioned(scenarios()[scenario], partitions)
            rows[name]["digests"].update(
                (f"p{partitions}.{key}", getattr(run, key))
                for key in ("rounds", "advances", "envelopes"))
            problem = run.mismatch(single)
            if problem:
                broken.append(f"PARITY {name} seed {TABLE_SEED} "
                              f"p{partitions}: {problem}")
    return ({name: {str(TABLE_SEED): cell} for name, cell in rows.items()},
            broken, timelines)


def document(seeds: list[int],
             scale: float) -> tuple[Sweep, list[str], dict[str, list[list]]]:
    """``(document, broken, timelines)``: every cell a sweep writes."""
    result = sweep(seeds, scale)
    broken = []
    for name in PARTITIONED:
        result[name], problems = sweep_partitioned(name, seeds, scale)
        broken += problems
    cells, problems, timelines = table()
    result.update(cells)
    return result, broken + problems, timelines


def moved(old: Sweep, new: Sweep) -> list[tuple[str, str, str]]:
    """Every (cell, seed, aspect) present in both whose digest differs,
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
        changed = {seed for cell, seed, _ in moves if cell == name}
        ratio = f"x{after / before:.3f}" if before else "n/a"
        print(f"{name:19s} {len(shared):3d} seeds  {len(changed):3d} moved  "
              f"events {before:>11,} -> {after:>11,}  ({ratio})")
    for name, seed, aspect in moves:
        print(f"MOVED {name} seed {seed}: {aspect}")
    print(f"{len(moves)} fingerprint aspect(s) moved")
    return 1 if moves else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds,
                        help="comma list with A..B ranges "
                             "(default 1989,4242,1..16)")
    parser.add_argument("--scale", type=float,
                        help="workload size factor (default 1, the "
                             "benchmark's)")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", help="write the sweep to this JSON file")
    action.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="list what moved between two sweeps")
    action.add_argument("--repin", action="store_true",
                        help=f"write {PINS.relative_to(REPO_ROOT)} and the "
                             "golden timelines")
    args = parser.parse_args(argv)
    if args.repin and (args.seeds or args.scale is not None):
        parser.error("--repin takes no --seeds or --scale")
    if args.compare:
        old, new = (json.loads(Path(path).read_text())
                    for path in args.compare)
        return compare(old, new)
    if args.repin:
        seeds, scale, out = list(PIN_SEEDS), PIN_SCALE, PINS
    else:
        seeds = args.seeds or parse_seeds("1989,4242,1..16")
        scale = 1.0 if args.scale is None else args.scale
        out = Path(args.out)
    result, broken, timelines = document(seeds, scale)
    print("\n".join(broken) or f"{', '.join(PARTITIONED)}: {len(CELLS)} "
          f"partitioned cells per seed equal single-process")
    if broken and args.repin:
        return 1
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for name, timeline in timelines.items() if args.repin else ():
        PINS.with_name(f"golden_timeline_{name}.json").write_text(json.dumps(
            {"scenario": name, "engine": "pre-optimization",
             "records": timeline}) + "\n")
    for name, rows in result.items():
        print(f"{name:19s} {len(rows):3d} seeds  "
              f"{sum(entry['events'] for entry in rows.values()):>11,} events")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
