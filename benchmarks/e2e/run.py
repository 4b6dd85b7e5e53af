"""One end-to-end benchmark for the Nectar simulator.

::

    python benchmarks/e2e/run.py [--seed N] [--workload NAME]
                                 [--seconds S] [--trace [0|1]] [--out FILE]

With ``--workload`` the named workload runs in *this* process (which is
therefore fresh, so ``peak_rss_mib`` is per workload): repetitions of
"build a new system, drive the fixed simulated workload to completion"
fill ``--seconds`` seconds — the first is discarded as warm-up — and
the six end-to-end metrics are printed by name with their unit, host
metrics as the median over repetitions, host seconds at the reference
host speed (every repetition is paired with ``hostspeed.slowdown``).
``--trace 1`` instead runs the workload under the benchmark's own call
tracer (``cProfile`` around the drive call, folded into layers by file
path) and with a metric registry attached, and prints the per-layer
metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Without ``--workload`` every workload runs, each in its own fresh
subprocess (untraced, and traced too with ``--trace``), and the merged
document goes to ``--out``; ``compare.py`` reads two such documents.

Exit status: 0 on a completed measurement (failed operations are
counted and reported, ``correct`` is then false); 1 when repetitions of
one seed disagree on any simulated result, a paper target is missed, or
the emitted metrics do not match ``BENCHMARK.json``; 3 (whole-suite mode
only) when a pinned result fingerprint has moved (``model-changed``).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from multiprocessing import resource_tracker
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SOURCE, "repro")):
    sys.exit(f"run.py: no simulator source at {SOURCE}; run from a "
             f"checkout of the repository")
sys.path[:0] = [path for path in (SOURCE, HERE) if path not in sys.path]

from hostspeed import slowdown  # noqa: E402
from layers import LAYERS, fold_profile  # noqa: E402
from probes import missed_bounds, paper_probes  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SCHEMA = "nectar-e2e/1"
MIN_REPETITIONS = 3


def load_contract() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


#: Largest child reaped before this program started any: a launcher's
#: (a shell shim execs the interpreter after forking helpers of its own,
#: and their rusage stays with the process), not a worker of ours.
_LAUNCHER_CHILD_KIB = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest reaped child
    (the bigger ``torus-p2`` worker; nothing for the other workloads)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children == _LAUNCHER_CHILD_KIB:
        children = 0
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + children) / 1024


def git_rev() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (``None`` outside git)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]),
                  encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return None


def manifest(args, started: float, load_start) -> dict[str, Any]:
    return {
        "git_rev": git_rev(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "cpus_used": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "wall_s": time.perf_counter() - started,
    }


# ----------------------------------------------------------------------
# pinned fingerprints
# ----------------------------------------------------------------------

def pin_status(name: str, seed: int, scale: float,
               digests: dict[str, str]) -> str:
    """``match``, ``unpinned`` or ``model-changed: <aspects>``."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        expected = json.load(f)
    pinned = expected.get(str(seed), {}).get(name) if scale == 1.0 else None
    if pinned is None:
        return "unpinned"
    moved = sorted(key for key in pinned.keys() | digests.keys()
                   if pinned.get(key) != digests.get(key))
    return "model-changed: " + ", ".join(moved) if moved else "match"


# ----------------------------------------------------------------------
# one workload, untraced: the end-to-end metrics
# ----------------------------------------------------------------------

class NonDeterministic(Exception):
    """Two repetitions of one seed disagreed on a simulated result."""


def same_result(first: Outcome, other: Outcome, where: str) -> None:
    ours, theirs = first.digests(), other.digests()
    if (first.simulated(), ours, first.ops_attempted, first.ops_failed) \
            != (other.simulated(), theirs, other.ops_attempted,
                other.ops_failed):
        moved = sorted(key for key, value in ours.items()
                       if theirs.get(key) != value)
        raise NonDeterministic(
            f"{where}: simulated result differs from the first "
            f"repetition ({', '.join(moved) or 'metrics'})")


def measure(workload, seconds: float) -> dict[str, Any]:
    """Repeat the workload for ``seconds``; summarise the repetitions.

    Each repetition is paired with a reading of the host's present speed
    taken just before and just after it (``hostspeed``), and its wall
    seconds are reported at the reference host speed.
    """
    window = time.perf_counter()
    workload.warm_up()
    slow = [slowdown()]
    walls: dict[str, list[float]] = {"setup_s": [], "run_s": []}
    samples: dict[str, list[float]] = {"setup_s": [], "run_s": []}
    first: Optional[Outcome] = None
    while True:
        elapsed = time.perf_counter() - window
        runs = walls["run_s"]
        if len(runs) >= MIN_REPETITIONS and \
                elapsed + 0.5 * statistics.median(runs) >= seconds:
            break
        setup_s, run_s, outcome = workload.repetition()
        slow.append(slowdown())
        around = (slow[-2] + slow[-1]) / 2
        for name, wall in (("setup_s", setup_s), ("run_s", run_s)):
            walls[name].append(wall)
            samples[name].append(wall / around)
        if first is None:
            first = outcome
        else:
            same_result(first, outcome, f"repetition {len(runs)}")
    rss = peak_rss_mib()
    assert first is not None
    outcome = workload.verify(first)
    rows: dict[str, dict[str, Any]] = {}
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        rows[name] = {"value": median, "q1": q1, "q3": q3, "n": len(values)}
    rows["peak_rss_mib"] = {"value": rss, "q1": rss, "q3": rss, "n": 1}
    for name, value in outcome.simulated().items():
        rows[name] = {"value": value, "q1": value, "q3": value,
                      "n": len(samples["run_s"])}
    return {"outcome": outcome, "end_to_end": rows,
            "samples": {**samples, "setup_wall_s": walls["setup_s"],
                        "run_wall_s": walls["run_s"],
                        "host_slowdown": slow}}


# ----------------------------------------------------------------------
# one workload, traced: the per-layer metrics
# ----------------------------------------------------------------------

def trace(workload) -> dict[str, Any]:
    """Untraced reference, observed run, profiled run → per-layer rows.

    The registry is attached in one run and the profiler in another:
    sampling 200–24 000 probes every 50 simulated µs took 13–43 % of a
    profiled run's self time and hid the layers it was meant to rank.
    """
    values: dict[str, Optional[float]] = dict(paper_probes())
    missed = missed_bounds(values)
    base_s, base = workload.reference_run()
    scaleout, notes = workload.scaleout_rows(base_s)
    observed_s, observed, counts = workload.observed(base.clock_ns)
    profiler = cProfile.Profile(builtins=False)
    traced_s, traced = workload.profiled(profiler)
    folded = fold_profile(profiler)
    for layer in LAYERS:
        for key, value in folded["layers"][layer].items():
            values[f"{layer}.{key}"] = value
    values.update(counts)
    values.update({f"scaleout.{key}": value
                   for key, value in scaleout.items()})
    values["trace.overhead_ratio"] = traced_s / base_s
    values["observe.overhead_ratio"] = observed_s / base_s
    same_result(base, traced, "profiled run")
    values["observe.result_match"] = float(
        observed.digests() == base.digests())
    values["sim.events"] = base.events
    values["sim.events_per_op"] = base.events / base.ops_attempted
    values["sim.events_per_host_s"] = base.events / base_s
    if values["observe.result_match"] != 1.0:
        notes.append("attaching the metric registry changed the simulated "
                     "result")
    return {"outcome": base, "values": values, "edges": folded["edges"],
            "missed": missed, "notes": notes}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def show(title: str, rows: dict[str, dict[str, Any]]) -> None:
    print(f"== {title}")
    width = max(len(name) for name in rows)
    for name, row in rows.items():
        value = row["value"]
        text = "null" if value is None else f"{value:.6g}"
        spread = ""
        if row.get("n", 1) > 1 and row["q1"] != row["q3"]:
            spread = f"   [q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  " \
                     f"n {row['n']}]"
        print(f"{name:<{width}}  {text:>12} {row['unit']}{spread}")


def run_workload(args) -> int:
    # See the README: the gated torus-p2 run is measured on one CPU; the
    # traced run keeps every CPU so the scaleout.* rows show the overlap.
    affinity = os.sched_getaffinity(0)
    if WORKLOADS[args.workload].single_cpu and not args.trace:
        os.sched_setaffinity(0, {min(affinity)})
    try:
        return _run_workload(args)
    finally:
        os.sched_setaffinity(0, affinity)
        stop_helpers()


def stop_helpers() -> None:
    """Stop every process this one started and wait until each has ended.

    ``run_partitioned`` reaps its own workers; one that outlived an
    exception is killed here.  The shared-memory rings also make
    ``multiprocessing`` start a resource tracker, which otherwise ends
    only *after* this process has (it waits for our end of its pipe to
    close) and so is still there when the caller looks.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    # Private, but the only handle: closes the pipe and waits for the
    # tracker (a no-op when none was started; a later use starts anew).
    resource_tracker._resource_tracker._stop()


def _run_workload(args) -> int:
    started = time.perf_counter()
    load_start = list(os.getloadavg())
    contract = load_contract()
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    section = "per_layer" if args.trace else "end_to_end"
    units_of = {entry["name"]: entry["unit"] for entry in contract[section]}
    entry: dict[str, Any] = {"seed": args.seed, "scale": args.scale}
    status = 0
    try:
        if args.trace:
            traced = trace(workload)
            outcome = traced["outcome"]
            rows = {name: {"value": value}
                    for name, value in traced["values"].items()}
            entry.update(edges=traced["edges"], notes=traced["notes"])
            for line in traced["missed"]:
                print(f"run.py: paper target missed: {line}",
                      file=sys.stderr)
                status = 1
        else:
            measured = measure(workload, args.seconds)
            outcome = measured["outcome"]
            rows = measured["end_to_end"]
            entry["samples"] = measured["samples"]
    except NonDeterministic as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if set(rows) != set(units_of):
        print(f"run.py: metrics differ from BENCHMARK.json {section}: "
              f"{sorted(set(rows) ^ set(units_of))}", file=sys.stderr)
        return 1
    rows = {name: {**rows[name], "unit": unit}
            for name, unit in units_of.items()}
    pin = pin_status(args.workload, args.seed, args.scale, outcome.digests())
    entry.update({
        "ops_attempted": outcome.ops_attempted,
        "ops_failed": outcome.ops_failed,
        "events": outcome.events,
        "fingerprint": outcome.digests(),
        "pin": pin,
        section: rows,
    })
    show(f"{args.workload}  seed {args.seed}  "
         f"{'per-layer (traced)' if args.trace else 'end-to-end'}", rows)
    print(f"ops_attempted {outcome.ops_attempted}  "
          f"ops_failed {outcome.ops_failed}  result {pin}")
    if outcome.failure:
        print(f"operations failed: {outcome.failure}")
    for note in entry.get("notes", ()):
        print(f"note: {note}")
    if args.out:
        document = {"schema": SCHEMA,
                    "manifest": manifest(args, started, load_start),
                    "workloads": {args.workload: entry}}
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(document, f, indent=1)
            f.write("\n")
    print(json.dumps({
        "correct": outcome.ops_failed == 0 and status == 0,
        "attempted": outcome.ops_attempted,
        "failed": outcome.ops_failed,
        # A value this host could not measure (see the notes) is left out
        # rather than reported as a number it is not.
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in rows.items()
                    if row["value"] is not None},
    }))
    return status


def fold(merged: dict[str, Any], entry: dict[str, Any],
         traced: bool) -> None:
    """Add one run's entry to a workload's merged entry.

    Operations, events, fingerprint and pin stay the gated run's: on
    torus-p2 the traced outcome is the single-process reference, which
    cannot fail, and must not hide a failure of the partitioned run.
    """
    if traced:
        entry = {key: entry[key] for key in ("per_layer", "edges", "notes")}
    merged.update(entry)


def run_suite(args) -> int:
    """Every workload in its own subprocess; one merged document."""
    started = time.perf_counter()
    load_start = list(os.getloadavg())
    merged: dict[str, dict[str, Any]] = {}
    status = 0
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        for name in WORKLOADS:
            for traced in ((0, 1) if args.trace else (0,)):
                part = os.path.join(scratch, f"{name}-{traced}.json")
                code = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--scale", str(args.scale),
                     "--trace", str(traced), "--out", part]).returncode
                if code:
                    print(f"run.py: {name} (trace {traced}) exited {code}",
                          file=sys.stderr)
                    status = status or code
                    break
                with open(part, encoding="utf-8") as f:
                    entry = json.load(f)["workloads"][name]
                fold(merged.setdefault(name, {}), entry, bool(traced))
    changed = [name for name, entry in merged.items()
               if entry["pin"].startswith("model-changed")]
    for name in changed:
        print(f"run.py: {name}: {merged[name]['pin']}", file=sys.stderr)
    document = {"schema": SCHEMA,
                "manifest": manifest(args, started, load_start),
                "workloads": merged}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(document, f, indent=1)
            f.write("\n")
    return status or (3 if changed else 0)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the Nectar simulator.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1989)
    parser.add_argument("--seconds", type=float, default=26.0,
                        help="how long one workload measures (untraced)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", help="write the JSON document here")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (tests only; results "
                             "at scale != 1 are not comparable)")
    args = parser.parse_args(argv)
    return run_workload(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
