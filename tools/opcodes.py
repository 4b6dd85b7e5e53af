#!/usr/bin/env python3
"""Interpreter opcodes one e2e workload executes, per layer and per operation.

Usage::

    python tools/opcodes.py smallmsg-hub
    python tools/opcodes.py rpc-faulted --scale 0.1 --seed 4242

Builds the named workload of ``benchmarks/e2e/workloads.py`` (imported
read-only) and drives it once, single-process, under ``sys.settrace``
with per-opcode events on.  Every opcode and every call (a generator
resumption counts as one, as it does for ``cProfile``) is counted by
*code object*, then the code objects are folded into the e2e layer map
(``benchmarks/e2e/layers.py::layer_of``).  Keying by code object keeps
apart functions that share a ``(file, line, name)``, such as dataclass
``__init__``s, which a profile keyed that way folds together.

Opcodes are deterministic where wall time is not, so the table says
exactly where host work moved between two commits.  They undercount
work done in C (``pickle``, ``int.from_bytes``, ``hashlib``): they
explain ``run_s``, never replace it.  The build is not counted, only
the drive.  ``torus-p2`` is counted as its single-process drive (the
one ``run.py --trace 1`` profiles); forked scale-out workers are not
traced.  A traced drive runs one to two orders of magnitude slower than
an untraced one: use ``--scale`` below 1 for a quick look.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable

REPO_ROOT = Path(__file__).resolve().parents[1]


def load_benchmark() -> tuple[dict[str, Any], Any, tuple[str, ...]]:
    """The e2e workload classes, ``layer_of`` and the layer order."""
    for path in (REPO_ROOT / "src", REPO_ROOT / "benchmarks" / "e2e"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from layers import LAYERS, layer_of
    from workloads import WORKLOADS
    return WORKLOADS, layer_of, LAYERS


def count(run: Callable[[], Any]) -> tuple[Any, Counter, Counter]:
    """``run()``'s result, and the opcodes and calls it executed, each
    keyed by code object."""
    opcodes: Counter = Counter()
    calls: Counter = Counter()

    def per_opcode(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return per_opcode

    def per_call(frame, event, arg):
        calls[frame.f_code] += 1
        frame.f_trace_opcodes = True
        return per_opcode

    previous = sys.gettrace()
    sys.settrace(per_call)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, opcodes, calls


def fold(counts: Counter, layer_of: Callable[[str], str]) -> Counter:
    """Per-code-object counts summed per layer."""
    layers: Counter = Counter()
    for code, value in counts.items():
        layers[layer_of(code.co_filename)] += value
    return layers


def measure(name: str, seed: int, scale: float) -> dict[str, Any]:
    """Drive workload ``name`` once under the counter.  Returns the
    operations, agenda entries and per-layer opcodes and calls."""
    workloads, layer_of, layer_names = load_benchmark()
    _system, drive = workloads[name](seed, scale).build()
    outcome, opcodes, calls = count(lambda: drive(None))
    by_layer, calls_by_layer = fold(opcodes, layer_of), fold(calls, layer_of)
    return {"workload": name, "seed": seed, "scale": scale,
            "operations": outcome.ops_attempted, "events": outcome.events,
            "layers": {layer: {"opcodes": by_layer[layer],
                               "calls": calls_by_layer[layer]}
                       for layer in layer_names}}


def table(result: dict[str, Any]) -> str:
    """The per-layer rows, largest first, then the total."""
    operations = max(result["operations"], 1)
    rows = result["layers"]
    total = sum(row["opcodes"] for row in rows.values())
    lines = [f"{result['workload']} seed {result['seed']} scale "
             f"{result['scale']:g}: {result['operations']} operations, "
             f"{result['events']} agenda entries",
             f"{'layer':<16}{'opcodes':>13}{'share':>8}{'per op':>10}"
             f"{'calls':>11}"]
    for layer, row in sorted(rows.items(),
                             key=lambda item: -item[1]["opcodes"]):
        if row["opcodes"] or row["calls"]:
            lines.append(f"{layer:<16}{row['opcodes']:>13,}"
                         f"{row['opcodes'] / (total or 1):>8.3f}"
                         f"{row['opcodes'] / operations:>10.1f}"
                         f"{row['calls']:>11,}")
    lines.append(f"{'total':<16}{total:>13,}{1:>8.3f}"
                 f"{total / operations:>10.1f}"
                 f"{sum(row['calls'] for row in rows.values()):>11,}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    workloads, _, _ = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(workloads))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="the workload's size factor (default 1)")
    parser.add_argument("--seed", type=int, default=1989)
    args = parser.parse_args(argv)
    print(table(measure(args.workload, args.seed, args.scale)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
