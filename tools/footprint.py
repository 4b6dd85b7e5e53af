#!/usr/bin/env python3
"""Where a built system's memory goes, per source line and per node.

Usage::

    PYTHONPATH=src python tools/footprint.py torus-256
    PYTHONPATH=src python tools/footprint.py single-hub-12 --top 20

Builds the named topology under ``tracemalloc`` and prints the heap the
build left behind, grouped by allocating source line (MiB, blocks,
``file:line``), then the total and the KiB per node.  Nothing is run:
this is the resident cost of *having* the nodes, which every forked
scale-out worker inherits.  ``tests/test_footprint.py`` holds the same
measurement to a budget, so an eagerly built per-node table fails a
test before it reaches a benchmark.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tracemalloc
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.topology import single_hub_system
from repro.topology.fabrics import build_system, torus_fabric

REPO_ROOT = Path(__file__).resolve().parents[1]
MIB = 1024 * 1024

#: Named builders: topology -> zero-argument callable returning a system.
TOPOLOGIES: dict[str, Callable[[], Any]] = {
    "single-hub-12": lambda: single_hub_system(12),
    "torus-256": lambda: build_system(torus_fabric((4, 4, 4, 4))),
    "torus-1024": lambda: build_system(torus_fabric((8, 8, 4, 4))),
}


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


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="per-source-line tracemalloc table of a system build")
    parser.add_argument("topology", choices=sorted(TOPOLOGIES))
    parser.add_argument("--top", type=int, default=12,
                        help="source lines to list (default 12)")
    args = parser.parse_args(argv)
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
