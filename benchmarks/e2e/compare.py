"""Compare two ``run.py`` documents: ``compare.py A.json B.json``.

``A`` is the base, ``B`` the candidate.  For every workload and
end-to-end metric the table shows both medians with their quartiles, the
ratio ``B/A`` and a verdict against the metric's bound in
``BENCHMARK.json``:

``same``
    the candidate's median equals the base's, or is within the bound of
    it;
``worse`` / ``better``
    it moved against / with the metric's direction by more than the
    bound (``better`` also needs the medians to differ by more than
    either side's own interquartile spread);
``unresolved``
    the run-to-run spread of either side is wider than the bound, so
    the comparison cannot tell — unless every sample of one side beats
    every sample of the other.

A simulated metric (``sim_*``) of one seed and scale repeats bit for
bit, so there the bound is not used: *any* move is ``worse`` or
``better`` by its sign.  The bounds in ``BENCHMARK.json`` leave room for
the difference between seeds, which two same-seed documents do not have.

Below the table every *exact* value that moved is listed: simulated
metrics, result fingerprints, and the per-layer counts that repeat bit
for bit (host timings and shares are not exact and are left out).

Exit status 1 on any ``worse`` or a larger ``ops_failed/ops_attempted``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Per-layer metrics measured in host time: never compared exactly.
_HOST_TIMED = (".share", "_s", "overhead_ratio",
               "events_per_host_s", "speedup_vs_single")


def load(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def spread(row: dict[str, Any]) -> float:
    """Interquartile range as a share of the median."""
    return (row["q3"] - row["q1"]) / row["value"] if row["value"] else 0.0


def verdict(base: dict[str, Any], cand: dict[str, Any], bound: float,
            lower_is_better: bool,
            base_samples: Optional[list[float]] = None,
            cand_samples: Optional[list[float]] = None,
            exact: bool = False) -> str:
    """``same`` / ``worse`` / ``better`` / ``unresolved`` for one metric."""
    sign = 1.0 if lower_is_better else -1.0
    # Positive = the candidate is worse.
    moved = sign * (cand["value"] - base["value"])
    if moved == 0:
        return "same"
    if exact or not base["value"]:
        # An exact metric has no noise to allow for, and a zero base
        # (goodput when every operation failed) has no share to take.
        return "worse" if moved > 0 else "better"
    change = moved / abs(base["value"])
    noise = max(spread(base), spread(cand))
    if noise > bound:
        if base_samples and cand_samples:
            a = [sign * v for v in base_samples]
            b = [sign * v for v in cand_samples]
            if max(b) < min(a):
                return "better"
            if min(b) > max(a):
                return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound and -change > noise:
        return "better"
    return "same"


def ratio(base: float, cand: float) -> str:
    return f"x{cand / base:.4f} of {base:.5g}" if base else "x n/a of 0"


def compare(base: dict[str, Any], cand: dict[str, Any],
            contract: dict[str, Any]) -> tuple[list[str], bool]:
    """Report lines and whether the candidate regressed."""
    lines: list[str] = []
    regressed = False
    metrics = contract["end_to_end"]
    for name in base["workloads"]:
        if name not in cand["workloads"]:
            lines.append(f"{name}: missing from the candidate")
            regressed = True
            continue
        a, b = base["workloads"][name], cand["workloads"][name]
        lines.append(f"== {name}")
        for metric in metrics:
            key = metric["name"]
            row_a = a.get("end_to_end", {}).get(key)
            row_b = b.get("end_to_end", {}).get(key)
            if row_a is None or row_b is None:
                continue
            result = verdict(
                row_a, row_b, metric["bound"], metric["better"] == "lower",
                a.get("samples", {}).get(key),
                b.get("samples", {}).get(key),
                exact=key.startswith("sim_") and same_inputs(a, b))
            regressed |= result == "worse"
            lines.append(
                f"  {key:<20} {row_a['value']:>11.5g} "
                f"[{row_a['q1']:.5g}, {row_a['q3']:.5g}] -> "
                f"{row_b['value']:>11.5g} "
                f"[{row_b['q1']:.5g}, {row_b['q3']:.5g}] {metric['unit']:<5}"
                f" {ratio(row_a['value'], row_b['value'])}  "
                f"bound {metric['bound']:g}  {result}")
        rate_a = a["ops_failed"] / a["ops_attempted"]
        rate_b = b["ops_failed"] / b["ops_attempted"]
        lines.append(f"  ops_failed/ops_attempted  "
                     f"{a['ops_failed']}/{a['ops_attempted']} -> "
                     f"{b['ops_failed']}/{b['ops_attempted']}")
        if rate_b > rate_a:
            lines.append("  more operations failed: worse")
            regressed = True
        moved = exact_differences(a, b)
        lines.extend(f"  moved: {line}" for line in moved)
        if not moved:
            lines.append("  every exact value identical")
    return lines, regressed


def same_inputs(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """Two entries of one seed and scale: their exact values compare."""
    return (a.get("seed"), a.get("scale")) == (b.get("seed"), b.get("scale"))


def exact_differences(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """Every exactly-repeatable value that differs between two entries."""
    if not same_inputs(a, b):
        return [f"seed/scale differ ({a.get('seed')}/{a.get('scale')} vs "
                f"{b.get('seed')}/{b.get('scale')}): exact values are "
                f"not comparable"]
    moved = []
    for key in sorted(a["fingerprint"].keys() | b["fingerprint"].keys()):
        if a["fingerprint"].get(key) != b["fingerprint"].get(key):
            moved.append(f"fingerprint.{key} (model-changed)")
    if a["events"] != b["events"]:
        moved.append(f"sim.events {a['events']} -> {b['events']}")
    for section, exact in (("end_to_end", lambda n: n.startswith("sim_")),
                           ("per_layer",
                            lambda n: not n.endswith(_HOST_TIMED))):
        rows_a, rows_b = a.get(section), b.get(section)
        if not rows_a or not rows_b:
            continue
        for name in rows_a:
            if exact(name) and name in rows_b \
                    and rows_a[name]["value"] != rows_b[name]["value"]:
                moved.append(f"{name} {rows_a[name]['value']} -> "
                             f"{rows_b[name]['value']}")
    return moved


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    contract = load(os.path.join(ROOT, "BENCHMARK.json"))
    lines, regressed = compare(load(argv[0]), load(argv[1]), contract)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
