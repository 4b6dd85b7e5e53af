"""E-SCL — partitioned scale-out on large fabrics.

Shards the 64-CAB 4D-torus E-SCL scenario across 1, 2 and 4 worker
processes under conservative lookahead and measures the events/s and
goodput curve against partition count.  The hard gate is bit-identity:
every partitioned run's fingerprint digest — per-CAB delivery counts and
content hashes, completion times, per-HUB counters — must equal the
single-process reference, and so must the raw event count.  A second
scenario at 256 CABs demonstrates the >= 256-node scale the CLI
(``python -m repro scaleout``) reports on.

Run as a script to capture the checked-in ``BENCH_scaleout.json``::

    PYTHONPATH=src python benchmarks/bench_scaleout.py --out BENCH_scaleout.json

The capture sweeps partition counts on ``escl-torus-256``
with interleaved best-of repeats (every repeat runs the single-process
reference and every configuration back-to-back, so host noise hits all
of them alike) and records *steady-state* wall — fork/build setup is
timed separately (``setup_s``).  The document carries the host's CPU
count, and a configuration with more partitions than the host has CPUs
records ``"speedup": null`` plus a ``note``: there the workers time-share
cores, so single wall over partitioned wall measures exchange overhead,
not parallel gain (see docs/PERFORMANCE.md).  The walls stay recorded.
Beside each wall sit the three CPU shares that add up to the run:
``compute_s`` (workers inside ``run``), ``ipc_s`` (workers planning,
exchanging reports, decoding + injecting) and ``coordinator_cpu_s``.
"""

import argparse
import json
import sys

import pytest

from repro.perfbench import host_block
from repro.scaleout import (escl_campaign, run_partitioned, run_single,
                            scenarios)
from repro.stats import ExperimentTable

PARTITION_COUNTS = (1, 2, 4)

#: Script-mode sweep: partition counts.
SWEEP = (2, 4)


def scenario_scaling(name):
    scenario = scenarios()[name]
    out = {"digests_match": True}
    reference = None
    for count in PARTITION_COUNTS:
        result = run_single(scenario) if count == 1 \
            else run_partitioned(scenario, count)
        if reference is None:
            reference = result
        out["digests_match"] &= result.mismatch(reference) is None
        out[f"p{count}_events_per_sec"] = round(result.events_per_sec, 1)
        out[f"p{count}_wall_s"] = round(result.wall_s, 4)
        out[f"p{count}_rounds"] = result.rounds
    out["events"] = reference.events
    out["goodput_mbps"] = round(reference.goodput_mbps, 1)
    out["digest"] = reference.digest
    return out


@pytest.mark.benchmark(group="E-SCL-scaleout")
def test_escl_torus64_partitioned_is_bit_identical(benchmark):
    result = benchmark.pedantic(scenario_scaling,
                                args=("escl-torus-64",),
                                rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    table = ExperimentTable(
        "E-SCL", "64-CAB 4D torus, shift permutation, 1/2/4 partitions")
    for count in PARTITION_COUNTS:
        table.add(f"{count}-partition throughput", "-",
                  f"{result[f'p{count}_events_per_sec']:,.0f} events/s")
    table.add("goodput", "-", f"{result['goodput_mbps']:.0f} Mb/s")
    table.add("digests + event counts bit-identical", "yes",
              "yes" if result["digests_match"] else "NO",
              result["digests_match"])
    table.print()
    assert result["digests_match"], \
        "partitioned digests diverged from the single-process reference"


@pytest.mark.benchmark(group="E-SCL-scaleout")
def test_escl_torus256_partitioned_is_bit_identical(benchmark):
    def run():
        scenario = scenarios()["escl-torus-256"]
        reference = run_single(scenario)
        sharded = run_partitioned(scenario, 4)
        return {
            "match": sharded.mismatch(reference) is None,
            "events": reference.events,
            "single_events_per_sec": round(reference.events_per_sec, 1),
            "p4_events_per_sec": round(sharded.events_per_sec, 1),
            "p4_rounds": sharded.rounds,
            "p4_envelopes": sharded.envelopes,
            "digest": reference.digest,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    assert result["match"], \
        "256-CAB partitioned digest diverged from single-process"


@pytest.mark.benchmark(group="E-SCL-scaleout")
def test_escl6_recovery_overhead(benchmark):
    """E-SCL6: wall-clock cost of one mid-run worker kill + restart.

    Runs the 64-CAB torus at 4 partitions clean, then again with a
    seeded worker-kill campaign that SIGKILLs one worker mid-run.  The
    recovery path — detect the death, reap every worker, run again from
    t = 0 — must reproduce the clean digest bit-for-bit; the measured
    quantity is the recovery overhead factor (chaos wall / clean wall).
    """
    def run():
        scenario = scenarios()["escl-torus-64"]
        reference = run_single(scenario)
        clean = run_partitioned(scenario, 4)
        kills = escl_campaign("worker-kill", scenario.config(),
                              partitions=4)
        chaos = run_partitioned(scenario, 4, faults=kills)
        return {
            "match": (clean.mismatch(reference) is None
                      and chaos.mismatch(reference, kills) is None),
            "events": reference.events,
            "worker_kills": chaos.worker_kills,
            "restarts": chaos.restarts,
            "clean_wall_s": round(clean.wall_s, 4),
            "chaos_wall_s": round(chaos.wall_s, 4),
            "recovery_overhead_x": round(
                chaos.wall_s / clean.wall_s, 3) if clean.wall_s else 0.0,
            "digest": reference.digest,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    table = ExperimentTable(
        "E-SCL6", "64-CAB 4D torus, 4 partitions, one mid-run SIGKILL")
    table.add("workers killed / restarts", "1 / 1",
              f"{result['worker_kills']} / {result['restarts']}")
    table.add("recovery overhead", "-",
              f"{result['recovery_overhead_x']:.2f}x wall "
              f"({result['clean_wall_s']:.3f}s -> "
              f"{result['chaos_wall_s']:.3f}s)")
    table.add("chaos digest bit-identical to clean", "yes",
              "yes" if result["match"] else "NO", result["match"])
    table.print()
    assert result["restarts"] >= 1, "the kill never fired"
    assert result["match"], \
        "recovery did not reproduce the clean single-process digest"


# ----------------------------------------------------------------------
# script mode: capture BENCH_scaleout.json
# ----------------------------------------------------------------------

def speedup_entry(single_wall_s: float, wall_s: float, partitions: int,
                  cpus: int) -> dict:
    """``speedup`` (+ ``note`` when withheld) for one configuration."""
    if cpus < partitions:
        return {"speedup": None,
                "note": f"speedup not recorded: {cpus} CPU(s) for "
                        f"{partitions} partitions cannot show parallel gain"}
    return {"speedup": round(single_wall_s / wall_s, 3) if wall_s else 0.0}


def capture(scenario_name: str, repeats: int, cpus: int) -> dict:
    """Interleaved best-of sweep of one scenario; returns its record."""
    scenario = scenarios()[scenario_name]
    best_single = None
    best = dict.fromkeys(SWEEP)
    reference = None
    for repeat in range(repeats):
        single = run_single(scenario)
        reference = reference or single
        assert single.digest == reference.digest
        if best_single is None or single.wall_s < best_single.wall_s:
            best_single = single
        for partitions in SWEEP:
            result = run_partitioned(scenario, partitions)
            held = best[partitions]
            if held is None or result.wall_s < held.wall_s:
                best[partitions] = result
            print(f"  repeat {repeat + 1}/{repeats} p{partitions}: "
                  f"wall={result.wall_s:.4f}s "
                  f"setup={result.setup_s:.4f}s", file=sys.stderr)
    record = {
        "events": best_single.events,
        "digest": best_single.digest,
        "single": {
            "wall_s": round(best_single.wall_s, 6),
            "setup_s": round(best_single.setup_s, 6),
            "events_per_sec": round(best_single.events_per_sec, 1),
        },
        "partitioned": [],
    }
    for partitions, result in best.items():
        record["partitioned"].append({
            "partitions": partitions,
            "wall_s": round(result.wall_s, 6),
            "setup_s": round(result.setup_s, 6),
            "events_per_sec": round(result.events_per_sec, 1),
            "rounds": result.rounds,
            "advances": result.advances,
            "envelopes": result.envelopes,
            **speedup_entry(best_single.wall_s, result.wall_s, partitions,
                            cpus),
            "compute_s": round(sum(result.timing["compute_s"]), 6),
            "wait_s": round(sum(result.timing["wait_s"]), 6),
            "exchange_s": round(sum(result.timing["exchange_s"]), 6),
            "ipc_s": round(sum(result.timing["ipc_s"]), 6),
            "coordinator_cpu_s": round(result.coordinator_cpu_s, 6),
            "digest_match": result.mismatch(best_single) is None,
        })
    return record


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        description="capture BENCH_scaleout.json (interleaved best-of)")
    parser.add_argument("--out", default="BENCH_scaleout.json")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--scenarios", default="escl-torus-256",
                        help="comma-separated E-SCL scenario names")
    args = parser.parse_args(argv)
    host = host_block()
    cpus = host["cpus"]
    document = {
        "schema": "nectar-bench-scaleout/1",
        "seed": scenarios()["escl-torus-256"].config().seed,
        "repeats": args.repeats,
        "method": "interleaved best-of; wall_s is steady-state "
                  "(fork/build setup timed separately as setup_s)",
        "host": host,
        "scenarios": {},
    }
    failed = False
    for name in args.scenarios.split(","):
        print(f"capturing {name} ...", file=sys.stderr)
        record = capture(name, args.repeats, cpus)
        document["scenarios"][name] = record
        failed |= any(not run["digest_match"]
                      for run in record["partitioned"])
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
