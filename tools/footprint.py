#!/usr/bin/env python3
"""Where a built system's memory goes, per source line and per node.

Usage::

    PYTHONPATH=src python tools/footprint.py torus-256
    PYTHONPATH=src python tools/footprint.py single-hub-12 --top 20
    PYTHONPATH=src python tools/footprint.py torus-256 --drive

Builds the named topology under ``tracemalloc`` and prints the heap the
build left behind, grouped by allocating source line (MiB, blocks,
``file:line``), then the total and the KiB per node.  Nothing is run:
this is the resident cost of *having* the nodes, which every forked
scale-out worker inherits.  ``tests/test_footprint.py`` holds the same
measurement to a budget, so an eagerly built per-node table fails a
test before it reaches a benchmark.

``--drive`` (fabric topologies only) runs the library's shift traffic
on the built fabric instead, as the single-process side of the e2e
``torus-p2`` workload does, and prints what running costs: the traced
heap peak of the drive, the cycle collector's passes and seconds per
generation (from ``gc.callbacks``), and, from a second drive with the
collector off, the cyclic garbage the drive leaves, by type.  It only
reports; ``tests/test_sim_garbage.py`` holds clean drives to no cyclic
garbage.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.scaleout import ScaleoutScenario, spawn_traffic
from repro.topology import single_hub_system
from repro.topology.fabrics import FabricSpec, build_system, torus_fabric

REPO_ROOT = Path(__file__).resolve().parents[1]
MIB = 1024 * 1024

#: The fabric topologies, the ones ``--drive`` can run traffic on.
FABRICS: dict[str, Callable[[], FabricSpec]] = {
    "torus-256": lambda: torus_fabric((4, 4, 4, 4)),
    "torus-1024": lambda: torus_fabric((8, 8, 4, 4)),
}

#: Named builders: topology -> zero-argument callable returning a system.
TOPOLOGIES: dict[str, Callable[[], Any]] = {
    "single-hub-12": lambda: single_hub_system(12),
    **{name: (lambda fabric=fabric: build_system(fabric()))
       for name, fabric in FABRICS.items()},
}

#: Datagrams each CAB sends in a ``--drive``: the e2e ``torus-p2``
#: workload's count at scale 1.
DRIVE_MESSAGES = 12


class Footprint(NamedTuple):
    """Heap retained by one build, as ``tracemalloc`` saw it."""

    total_bytes: int
    nodes: int
    #: ``(bytes, blocks, "file:line")`` per allocating line, largest first.
    lines: tuple[tuple[int, int, str], ...]

    @property
    def total_mib(self) -> float:
        return self.total_bytes / MIB

    @property
    def per_node_kib(self) -> float:
        return self.total_bytes / self.nodes / 1024

    def file_bytes(self, suffix: str) -> int:
        """Bytes attributed to every line of files ending in ``suffix``."""
        return sum(size for size, _blocks, where in self.lines
                   if where.rsplit(":", 1)[0].endswith(suffix))


def measure(build: Callable[[], Any]) -> Footprint:
    """Build a system under ``tracemalloc``; report what it retains."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        system = build()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    lines = []
    for stat in after.compare_to(before, "lineno"):
        if stat.size_diff <= 0:
            continue
        frame = stat.traceback[0]
        lines.append((stat.size_diff, stat.count_diff,
                      f"{_short(frame.filename)}:{frame.lineno}"))
    lines.sort(reverse=True)
    return Footprint(total_bytes=sum(size for size, _b, _w in lines),
                     nodes=len(system.cabs), lines=tuple(lines))


def _short(filename: str) -> str:
    try:
        return str(Path(filename).resolve().relative_to(REPO_ROOT))
    except ValueError:
        return filename


def render(name: str, footprint: Footprint, top: int) -> str:
    out = [f"{name}: {footprint.nodes} nodes, "
           f"{footprint.total_mib:.1f} MiB traced, "
           f"{footprint.per_node_kib:.1f} KiB per node",
           f"{'MiB':>8}  {'blocks':>8}  source line",
           f"{'-' * 8}  {'-' * 8}  {'-' * 11}"]
    for size, blocks, where in footprint.lines[:top]:
        out.append(f"{size / MIB:8.2f}  {blocks:8d}  {where}")
    rest = footprint.lines[top:]
    if rest:
        out.append(f"{sum(size for size, _b, _w in rest) / MIB:8.2f}  "
                   f"{sum(blocks for _s, blocks, _w in rest):8d}  "
                   f"({len(rest)} more lines)")
    return "\n".join(out)


class DriveCost(NamedTuple):
    """What one drive of shift traffic cost beyond the build."""

    build_bytes: int
    peak_bytes: int
    #: ``(passes, seconds, objects collected)`` per collector generation.
    collections: tuple[tuple[int, float, int], ...]
    #: Objects only the cycle collector could free, by type name.
    garbage: Counter


def measure_drive(fabric: Callable[[], FabricSpec]) -> DriveCost:
    """Run shift traffic on ``fabric`` twice: once under ``tracemalloc``
    with the collector on, once with it off to list what it would free."""
    scenario = ScaleoutScenario("footprint-drive", "shift traffic",
                                fabric(), messages_per_cab=DRIVE_MESSAGES)
    collections = [[0, 0.0, 0] for _ in range(3)]
    started = 0.0

    def on_collect(phase: str, info: dict[str, int]) -> None:
        nonlocal started
        if phase == "start":
            started = time.perf_counter()
            return
        generation = collections[info["generation"]]
        generation[0] += 1
        generation[1] += time.perf_counter() - started
        generation[2] += info["collected"]

    def shift_traffic(system: Any) -> Any:
        spawn_traffic(scenario, system)
        system.run()
        return system

    gc.collect()
    tracemalloc.start()
    try:
        system = build_system(scenario.fabric, scenario.config())
        build_bytes = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        gc.callbacks.append(on_collect)
        try:
            shift_traffic(system)
        finally:
            gc.callbacks.remove(on_collect)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del system
    garbage = cyclic_garbage(lambda: shift_traffic(
        build_system(scenario.fabric, scenario.config())))
    return DriveCost(build_bytes, peak_bytes,
                     tuple(tuple(row) for row in collections), garbage)


def cyclic_garbage(drive: Callable[[], Any]) -> Counter:
    """Types of the objects only the cycle collector could free after
    ``drive()``, counted while what ``drive`` returned is still
    referenced (a discarded system is cyclic garbage of its own)."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        while gc.collect():
            pass
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        start = len(gc.garbage)
        kept = drive()
        gc.collect()
        found = Counter(type(obj).__name__ for obj in gc.garbage[start:])
        del gc.garbage[start:], kept
        return found
    finally:
        gc.set_debug(debug)
        if enabled:
            gc.enable()


def render_drive(name: str, cost: DriveCost) -> str:
    out = [f"{name} --drive: {DRIVE_MESSAGES} shift datagrams per CAB, "
           f"traced heap peak {cost.peak_bytes / MIB:.1f} MiB "
           f"over a {cost.build_bytes / MIB:.1f} MiB build",
           f"{'gen':>3}  {'passes':>6}  {'seconds':>7}  {'collected':>9}"]
    for generation, (passes, seconds, collected) in enumerate(
            cost.collections):
        out.append(f"{generation:3d}  {passes:6d}  {seconds:7.3f}  "
                   f"{collected:9d}")
    total = sum(cost.garbage.values())
    out.append(f"cyclic garbage: {total} objects")
    for kind, count in cost.garbage.most_common():
        out.append(f"{count:9d}  {kind}")
    return "\n".join(out)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="per-source-line tracemalloc table of a system build")
    parser.add_argument("topology", choices=sorted(TOPOLOGIES))
    parser.add_argument("--top", type=int, default=12,
                        help="source lines to list (default 12)")
    parser.add_argument("--drive", action="store_true",
                        help="run shift traffic on a fabric topology and "
                             "report heap peak, collector passes and "
                             "cyclic garbage instead")
    args = parser.parse_args(argv)
    if args.drive:
        if args.topology not in FABRICS:
            parser.error(f"--drive needs a fabric topology: "
                         f"{', '.join(sorted(FABRICS))}")
        table = render_drive(args.topology,
                             measure_drive(FABRICS[args.topology]))
    else:
        table = render(args.topology, measure(TOPOLOGIES[args.topology]),
                       args.top)
    try:
        print(table, flush=True)
    except BrokenPipeError:
        # The reader (``| head``) has seen enough.  Point stdout at
        # /dev/null so the interpreter's own flush at exit cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
