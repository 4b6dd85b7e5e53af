"""E-SCL — partitioned scale-out on large fabrics.

Shards the 64-CAB 4D-torus E-SCL scenario across 1, 2 and 4 worker
processes under conservative lookahead and measures the events/s and
goodput curve against partition count.  The hard gate is bit-identity:
every partitioned run's fingerprint digest — per-CAB delivery counts and
content hashes, completion times, per-HUB counters — must equal the
single-process reference, and so must the raw event count.  A second
scenario at 256 CABs demonstrates the >= 256-node scale the CLI
(``python -m repro scaleout``) reports on.

The events/s rows here are one-shot host walls, printed for orientation.
Scale-out host time is judged by the end-to-end benchmark: its traced
``torus-p2`` run records the ``scaleout.*`` rows (see
docs/PERFORMANCE.md).
"""

from repro.scaleout import run_partitioned, run_single, scenarios
from repro.stats import ExperimentTable

PARTITION_COUNTS = (1, 2, 4)


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
    out["goodput_mbps"] = round(reference.goodput_mbps, 1)
    return out


def test_escl_torus64_partitioned_is_bit_identical():
    result = scenario_scaling("escl-torus-64")
    table = ExperimentTable(
        "E-SCL", "64-CAB 4D torus, shift permutation, 1/2/4 partitions")
    for count in PARTITION_COUNTS:
        table.add(f"{count}-partition throughput", "-",
                  f"{result[f'p{count}_events_per_sec']:,.0f} events/s")
    table.add("goodput", "-", f"{result['goodput_mbps']:.0f} Mb/s")
    table.add("digests + event counts bit-identical", "yes",
              "yes" if result["digests_match"] else "NO",
              result["digests_match"])
    table.check()


def test_escl_torus256_partitioned_is_bit_identical():
    scenario = scenarios()["escl-torus-256"]
    reference = run_single(scenario)
    sharded = run_partitioned(scenario, 4)
    assert sharded.mismatch(reference) is None, \
        "256-CAB partitioned digest diverged from single-process"

