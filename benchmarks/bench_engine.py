"""E-PERF — wall-clock throughput of the simulation engine itself.

Unlike the other benchmarks (which measure *simulated* nanoseconds),
this one measures *host* seconds: how many agenda events per second the
engine drains on the fixed-seed macro scenarios defined in
:mod:`repro.perfbench`.  The scenarios fingerprint their end state, so
every timing run double-checks determinism for free.

Run standalone with ``pytest benchmarks/bench_engine.py --benchmark-only
-s``, or use ``python -m repro bench`` to write ``BENCH_engine.json``
(compare files with ``python tools/perf_report.py``).
"""

import pytest

from repro.perfbench import SCENARIOS, run_scenario


@pytest.mark.benchmark(group="E-PERF-engine")
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_engine_throughput(benchmark, name):
    digests = []

    def once():
        result = run_scenario(name, repeat=1)
        digests.append(result.result_digest)
        return result

    result = benchmark.pedantic(once, rounds=3, iterations=1)
    benchmark.extra_info.update({
        "scenario": name,
        "events": result.events,
        "sim_ns": result.sim_ns,
        "events_per_sec": round(result.events_per_sec, 1),
        "result_digest": result.result_digest,
    })
    assert len(set(digests)) == 1, "non-deterministic scenario"
    assert result.events > 0
    print(f"\n{name}: {result.events} events in {result.wall_s:.4f}s "
          f"= {result.events_per_sec:,.0f} events/sec")
