"""E20 — the parallel production system (§7).

"The low latency communication of Nectar provides good support for the
fine-grained parallelism required by this application."  The bench runs
the distributed RETE matcher and sweeps the worker count: with ~20 µs
match times, low token-hop latency is what keeps scaling useful.
"""

from repro.apps import ProductionSystemApp
from repro.stats import ExperimentTable
from repro.topology import single_hub_system


def run_production(workers, seeds=30, until=3_000_000_000):
    system = single_hub_system(max(workers + 1, 2))
    app = ProductionSystemApp(
        system, [system.cab(f"cab{i}") for i in range(workers)],
        max_depth=4)
    app.run(seed_count=seeds, until=until)
    return app


def scenario_production():
    app = run_production(4)
    return {
        "tokens": app.tokens_processed,
        "tokens_per_s": app.tokens_per_second,
        "hop_network_us": app.hop_latency.minimum / 1000,
        "hop_mean_us": app.hop_latency.mean_us,
        "conservation": app.tokens_processed == app.tokens_emitted,
    }


def test_e20_token_traffic():
    result = scenario_production()
    table = ExperimentTable("E20", "Distributed RETE on 4 workers")
    table.add("tokens matched", "all emitted tokens",
              str(result["tokens"]), result["conservation"])
    table.add("token hop latency (network)", "fine-grained (≪ 1 ms)",
              f"{result['hop_network_us']:.1f} µs",
              result["hop_network_us"] < 200)
    table.add("token hop incl. queueing (mean)", "load-dependent",
              f"{result['hop_mean_us']:.0f} µs")
    table.add("match throughput", "-",
              f"{result['tokens_per_s']:.0f} tokens/s")
    table.check()


def test_e20_work_stealing_balances_skew():
    """§7: 'an application that requires run-time load balancing' —
    with all tokens routed to one worker, stealing spreads the load and
    finishes sooner."""
    def scenario():
        results = {}
        for stealing in (False, True):
            system = single_hub_system(6)
            app = ProductionSystemApp(
                system, [system.cab(f"cab{i}") for i in range(4)],
                max_depth=2, work_stealing=stealing)
            app._route = lambda kind: app.tasks[0]
            app.run(seed_count=12, until=4_000_000_000)
            loads = list(app.per_worker_processed.values())
            results["steal" if stealing else "base"] = {
                "finish_ms": app.last_activity / 1e6,
                "max_load_share": max(loads) / max(sum(loads), 1),
                "stolen": app.tokens_stolen,
            }
        return results
    results = scenario()
    table = ExperimentTable("E20c", "Run-time load balancing (skewed)")
    table.add("no stealing: hottest worker share", "~100 %",
              f"{results['base']['max_load_share']:.0%}")
    table.add("stealing: hottest worker share", "lower",
              f"{results['steal']['max_load_share']:.0%}",
              results["steal"]["max_load_share"]
              < results["base"]["max_load_share"])
    table.add("stealing finishes sooner", "yes",
              f"{results['steal']['finish_ms']:.2f} vs "
              f"{results['base']['finish_ms']:.2f} ms",
              results["steal"]["finish_ms"]
              < results["base"]["finish_ms"])
    table.add("tokens stolen", "> 0",
              str(results["steal"]["stolen"]),
              results["steal"]["stolen"] > 0)
    table.check()


def test_e20_scaling_with_workers():
    rates = {workers: run_production(workers).tokens_per_second
             for workers in (2, 4, 8)}
    table = ExperimentTable("E20b", "Token throughput vs workers")
    for workers, rate in sorted(rates.items()):
        table.add(f"{workers} workers", "more is faster",
                  f"{rate:.0f} tokens/s")
    assert rates[8] > rates[2]
    table.check()
