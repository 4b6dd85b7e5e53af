"""``python -m repro`` — command-line entry points.

* ``python -m repro`` (or ``python -m repro report``) — a one-minute
  reproduction report: the headline experiments, paper versus measured.
* ``python -m repro workload`` — drive a topology with synthetic traffic
  and sweep offered load to the saturation knee (see ``--help``).
* ``python -m repro observe <scenario>`` — run an instrumented scenario
  and export a Chrome/Perfetto trace plus a JSONL metrics dump
  (``docs/OBSERVABILITY.md``).
* ``python -m repro faults <campaign>`` — run one workload clean and
  under a named fault-injection campaign, report the goodput/latency/
  recovery-counter deltas (``docs/FAULTS.md``).
* ``python -m repro resilience [campaign]`` — three-way clean/healed/
  unhealed comparison on the dual-link topology: failure detection,
  rerouting and recovery in action (``docs/RESILIENCE.md``).
* ``python -m repro collectives`` — E-COL comparison of HUB-offloaded
  versus software-tree versus dimension-exchange collectives under
  hotspot contention (``docs/COLLECTIVES.md``); output is
  deterministic, so CI diffs two runs.
* ``python -m repro scaleout`` — E-SCL partitioned scale-out runs:
  shard a large fabric across worker processes under conservative
  lookahead, report events/s and goodput per partition count, and —
  whenever two or more counts are given — assert every run's digest
  bit-identical to the first (``docs/SCALEOUT.md``).

For the complete suite use
``pytest benchmarks --ignore=benchmarks/e2e -s``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from .config import NectarConfig
from .errors import NectarError, ScaleoutError
from .sim import units


def _write_json(path: str, document: dict, what: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {what} to {path}")


def run_report(_args: argparse.Namespace) -> int:
    from .workload.experiments import paper_report

    print("Nectar reproduction — quick report (full suite: "
          "pytest benchmarks --ignore=benchmarks/e2e -s)")
    tables = paper_report()
    for table in tables:
        table.print()
    print()
    return 0 if all(table.all_ok for table in tables) else 1


def run_workload(args: argparse.Namespace) -> int:
    from .topology import mesh_system, single_hub_system
    from .workload import LoadSweep

    cfg = NectarConfig(seed=args.seed)
    if args.mesh:
        try:
            rows, cols = (int(part) for part in args.mesh.split("x", 1))
        except ValueError:
            print(f"error: --mesh wants ROWSxCOLS, got {args.mesh!r}",
                  file=sys.stderr)
            return 2
        topology = partial(mesh_system, rows, cols, args.cabs, cfg=cfg)
        where = f"{rows}x{cols} HUB mesh, {args.cabs} CABs each"
    else:
        topology = partial(single_hub_system, args.cabs, cfg=cfg)
        where = f"single {cfg.hub.num_ports}-port HUB, {args.cabs} CABs"

    try:
        loads = sorted(float(part) for part in args.loads.split(","))
    except ValueError:
        print(f"error: --loads wants comma-separated numbers, "
              f"got {args.loads!r}", file=sys.stderr)
        return 2
    pattern_kwargs = {}
    if args.pattern == "hotspot":
        pattern_kwargs["fraction"] = args.hotspot_fraction
    observe_path = getattr(args, "observe", None)
    sweep = LoadSweep(
        topology, loads, pattern=args.pattern, arrivals=args.arrivals,
        mode=args.mode, message_bytes=args.message_bytes,
        warmup_ns=units.ms(args.warmup_ms),
        duration_ns=units.ms(args.duration_ms),
        window_depth=args.window, pattern_kwargs=pattern_kwargs,
        fault_scenario=getattr(args, "faults", None),
        resilience=getattr(args, "resilience", False),
        observe=observe_path is not None,
        progress=(lambda line: print(f"  {line}"))
        if args.verbose else None,
    ).run()
    if observe_path is not None:
        with open(observe_path, "w", encoding="utf-8") as handle:
            for point in sweep:
                handle.write(json.dumps(
                    {"offered_load": point.offered_load,
                     "achieved_mbps": point.result.achieved_mbps,
                     "series_means": point.series_means,
                     "metrics": point.metrics},
                    sort_keys=True) + "\n")
        print(f"wrote per-sweep-point metrics to {observe_path}")
    sweep.table("WL", f"{args.pattern}/{args.arrivals}/{args.mode} "
                      f"on {where} ({args.message_bytes} B messages, "
                      f"seed {args.seed})").print()
    knee = sweep.knee()
    if sweep.saturated():
        print(f"\nknee: offered load {knee.offered_load:.2f} "
              f"({knee.result.achieved_mbps:.1f} Mb/s achieved, "
              f"p99 {knee.result.p_us(0.99):.1f} µs)")
    else:
        print(f"\nno knee within the sweep: even load "
              f"{sweep.loads[-1]:.2f} is served at "
              f"{sweep.points[-1].result.efficiency:.0%} efficiency — "
              f"raise --loads to find saturation")
    return 0


def run_observe(args: argparse.Namespace) -> int:
    from .observe import scenarios
    from .workload import Workload

    system, workload_kwargs = scenarios.build(
        args.scenario, args.seed, units.ms(args.duration_ms))
    observatory = system.observe(interval_ns=units.us(args.interval_us))
    result = Workload(system, **workload_kwargs).run()
    events = observatory.export_chrome_trace(args.out)
    metrics_path = args.metrics or _default_metrics_path(args.out)
    rows = observatory.export_metrics_jsonl(metrics_path)
    print(f"scenario {args.scenario}: "
          f"{scenarios.SCENARIOS[args.scenario][0]}")
    print(f"  simulated {units.to_us(system.now) / 1000.0:.2f} ms, "
          f"achieved {result.achieved_mbps:.1f} Mb/s, "
          f"p99 {result.p_us(0.99):.1f} µs")
    print(f"  {args.out}: {events} trace events "
          f"(open in https://ui.perfetto.dev)")
    print(f"  {metrics_path}: {rows} metric rows (JSONL)")
    busiest = sorted(
        ((series.mean, name)
         for name, series in observatory.series.items()
         if name.endswith(".util")), reverse=True)[:4]
    if busiest:
        print("  busiest links (mean utilization):")
        for mean, name in busiest:
            print(f"    {name:32s} {mean:6.1%}")
    return 0


def run_collectives(_args: argparse.Namespace) -> int:
    """Three-way E-COL comparison: HUB offload vs software trees.

    Output is fully deterministic (simulated clocks and digests only,
    never wall time) — the CI collectives job runs it twice and diffs.
    """
    from .workload.experiments import measure_collectives

    result = measure_collectives()
    print("in-network collectives (seed 1989): 12 rounds of "
          "allreduce + barrier across 8 ranks on one HUB,")
    print("with the 7 non-root CABs aiming 512 B hotspot noise at cab0")
    print()
    print(f"{'mode':10s} {'finish':>11s} {'per round':>11s}  digest")
    for mode, finish_ns in result["finish_ns"].items():
        print(f"{mode:10s} {units.to_us(finish_ns) / 1000:8.3f} ms "
              f"{units.to_us(finish_ns) / 12:8.1f} µs  "
              f"{result['digests'][mode][:16]}")
    print()
    print("HUB combining unit (hub mode): "
          + ", ".join(f"{key}={value}"
                      for key, value in result["combining"].items()))
    print(f"speedup, HUB offload over dimension exchange: "
          f"{result['speedup_vs_exchange']:.2f}x")
    print(f"speedup, HUB offload over software tree:      "
          f"{result['speedup_vs_tree']:.2f}x")
    return 0


def _run_campaign_comparison(args: argparse.Namespace, cfg: NectarConfig,
                             campaign_kwargs: dict, where: str, window,
                             compare, describe: bool = False) -> int:
    """What ``faults`` and ``resilience`` share: resolve the campaign,
    print its schedule or run ``compare(scenario, workload_kwargs=...)``,
    print the table, write ``--json``.  ``window(scenario)`` gives the
    warmup/duration/drain keywords of the workload."""
    from .faults import build_campaign

    scenario = build_campaign(args.campaign, cfg, **campaign_kwargs)
    if args.schedule:
        print(scenario.schedule_text())
        return 0
    workload_kwargs = dict(
        pattern="uniform", arrivals="poisson", mode=args.mode,
        message_bytes=args.message_bytes, offered_load=args.load,
        **window(scenario))
    comparison = compare(scenario, workload_kwargs=workload_kwargs)
    print(f"campaign {args.campaign} (seed {args.seed}, {where}, "
          f"{args.mode} {args.message_bytes} B at load {args.load:.2f})"
          + (f": {scenario.description}" if describe else ""))
    print(comparison.table())
    if getattr(args, "transitions", False):
        print("\ndetector timeline (healed run):")
        print(comparison.transition_text)
    if args.json is not None:
        _write_json(args.json, comparison.summary(), "comparison summary")
    return 0


def run_faults(args: argparse.Namespace) -> int:
    from .faults import run_comparison
    from .topology import single_hub_system

    cfg = NectarConfig(seed=args.seed)
    return _run_campaign_comparison(
        args, cfg, {}, f"{args.cabs} CABs",
        lambda scenario: dict(
            warmup_ns=units.ms(1.0),
            duration_ns=max(units.ms(5.0),
                            scenario.horizon_ns - units.ms(1.0))),
        partial(run_comparison,
                partial(single_hub_system, args.cabs, cfg=cfg)),
        describe=True)


def run_resilience(args: argparse.Namespace) -> int:
    from .resilience import run_resilience_comparison
    from .topology import dual_link_system

    cfg = NectarConfig(seed=args.seed)
    warmup_ns = units.ms(1.0)
    duration_ns = units.ms(args.duration_ms)
    campaign_kwargs = dict(start_ns=warmup_ns,
                           horizon_ns=warmup_ns + duration_ns)
    return _run_campaign_comparison(
        args, cfg, campaign_kwargs,
        f"2 HUBs x {args.links} links, {args.cabs_per_hub} CABs each",
        lambda scenario: dict(warmup_ns=warmup_ns, duration_ns=duration_ns,
                              drain_ns=units.ms(2.0)),
        partial(run_resilience_comparison,
                topology_factory=partial(dual_link_system, args.cabs_per_hub,
                                         links=args.links, cfg=cfg)))


def run_scaleout(args: argparse.Namespace) -> int:
    """E-SCL: partition-count scaling with a hard digest gate."""
    from .scaleout import (escl_campaign, partition_fabric,
                           run_partitioned, run_single, scenarios)

    registry = scenarios()
    if args.scenario not in registry:
        print(f"error: unknown scenario {args.scenario!r} "
              f"(have: {', '.join(sorted(registry))})", file=sys.stderr)
        return 2
    try:
        counts = sorted({int(part)
                         for part in args.partitions.split(",")})
    except ValueError:
        print(f"error: --partitions wants comma-separated integers, "
              f"got {args.partitions!r}", file=sys.stderr)
        return 2
    if any(count < 1 for count in counts):
        print("error: partition counts must be >= 1", file=sys.stderr)
        return 2
    scenario = registry[args.scenario]
    # Before the header: a count the fabric cannot take is an error exit.
    partition_fabric(scenario.fabric, counts[-1])
    faults = None if args.faults is None \
        else escl_campaign(args.faults, scenario.config())
    print(f"E-SCL {scenario.name}: {scenario.description}")
    print(f"  {len(scenario.fabric.hubs)} HUBs, {scenario.num_cabs} CABs, "
          f"{len(scenario.fabric.links)} inter-HUB links; "
          f"{scenario.messages_per_cab} x {scenario.message_bytes} B per "
          f"CAB, {scenario.mode} mode, lookahead "
          f"{scenario.propagation_ns} ns")
    if faults is not None:
        print(f"  fault campaign ({len(faults.events)} events):")
        for event in faults.events:
            print(f"    {event.describe()}")
    print()
    print(f"{'parts':>5s} {'events':>9s} {'wall':>8s} {'setup':>7s} "
          f"{'events/s':>10s} {'goodput':>9s} {'rounds':>6s}  digest")
    results = []
    for count in counts:
        try:
            result = run_single(scenario, faults=faults) if count == 1 \
                else run_partitioned(scenario, count, faults=faults)
        except ScaleoutError as exc:
            print(f"\nSCALE-OUT FAILURE at {count} partitions: {exc}",
                  file=sys.stderr)
            for entry in exc.forensics:
                failure = entry["failure"]
                print(f"  partition {entry['partition']}: "
                      f"last_window={entry['last_window']} "
                      f"events={entry['events']} "
                      f"failure={failure and failure['reason']}",
                      file=sys.stderr)
            return 1
        results.append(result)
        print(f"{count:5d} {result.events:9,} {result.wall_s:7.3f}s "
              f"{result.setup_s:6.3f}s {result.events_per_sec:10,.0f} "
              f"{result.goodput_mbps:6.0f} Mb/s {result.rounds:6d}  "
              f"{result.digest[:16]}")
    if len(counts) > 1:
        broken = [f"  {result.partitions} partitions: {problem}"
                  for result in results[1:]
                  if (problem := result.mismatch(results[0], faults))]
        if broken:
            print("\nDIGEST MISMATCH: partitioned runs are not "
                  "bit-identical to the reference", file=sys.stderr)
            print("\n".join(broken), file=sys.stderr)
            return 1
        print(f"\nall {len(results)} run(s) bit-identical: "
              f"digest {results[0].digest}")
    if args.json is not None:
        _write_json(args.json,
                    {"scenario": scenario.name,
                     "runs": [result.summary() for result in results]},
                    "results")
    return 0


def _default_metrics_path(out: str) -> str:
    stem = out[:-5] if out.endswith(".json") else out
    return f"{stem}.metrics.jsonl"


def _add_campaign_options(parser: argparse.ArgumentParser,
                          load: float) -> None:
    """The options ``faults`` and ``resilience`` share."""
    parser.add_argument("--mode", choices=("open", "closed"),
                        default="open",
                        help="open-loop datagrams or closed-loop RPCs")
    parser.add_argument("--load", type=float, default=load,
                        help=f"offered load per source (default: {load})")
    parser.add_argument("--message-bytes", type=int, default=512,
                        help="payload bytes per message (default: 512)")
    parser.add_argument("--seed", type=int, default=1989,
                        help="config seed; same seed, same schedule")
    parser.add_argument("--schedule", action="store_true",
                        help="print the campaign's fault schedule and exit")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write the comparison summary as JSON")


def build_parser() -> argparse.ArgumentParser:
    from .faults import CAMPAIGNS
    from .observe.scenarios import SCENARIOS as OBSERVE_SCENARIOS
    from .scaleout import ESCL_CAMPAIGNS
    from .workload.arrivals import ARRIVALS
    from .workload.patterns import PATTERNS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Nectar reproduction command-line tools.")
    commands = parser.add_subparsers(dest="command")
    report = commands.add_parser(
        "report", help="one-minute paper-versus-measured report (default)")
    report.set_defaults(func=run_report)

    workload = commands.add_parser(
        "workload",
        help="synthetic traffic generation and saturation sweeps")
    workload.add_argument("--pattern", choices=sorted(PATTERNS),
                          default="uniform",
                          help="traffic pattern (default: uniform)")
    workload.add_argument("--arrivals", choices=sorted(ARRIVALS),
                          default="poisson",
                          help="arrival process (default: poisson)")
    workload.add_argument("--mode", choices=("open", "closed"),
                          default="open",
                          help="open-loop datagrams or closed-loop RPCs")
    workload.add_argument("--cabs", type=int, default=8,
                          help="CABs per HUB (default: 8)")
    workload.add_argument("--mesh", metavar="RxC", default=None,
                          help="sweep a RxC multi-HUB mesh instead of a "
                               "single HUB (e.g. --mesh 2x2)")
    workload.add_argument("--loads", default="0.1,0.2,0.3,0.4,0.6,0.8",
                          help="comma-separated offered loads as a fraction "
                               "of the 100 Mb/s fiber rate per source")
    workload.add_argument("--message-bytes", type=int, default=512,
                          help="payload bytes per message (default: 512)")
    workload.add_argument("--duration-ms", type=float, default=4.0,
                          help="measured window per load step (default: 4)")
    workload.add_argument("--warmup-ms", type=float, default=1.0,
                          help="warmup before measuring (default: 1)")
    workload.add_argument("--window", type=int, default=4,
                          help="closed-loop requests in flight per source")
    workload.add_argument("--hotspot-fraction", type=float, default=0.25,
                          help="traffic share aimed at the hot CAB")
    workload.add_argument("--seed", type=int, default=1989,
                          help="config seed; same seed, same run")
    workload.add_argument("--verbose", action="store_true",
                          help="print each load step as it completes")
    workload.add_argument("--observe", metavar="FILE", default=None,
                          help="write per-sweep-point metric snapshots "
                               "to FILE as JSONL")
    workload.add_argument("--faults", metavar="CAMPAIGN", default=None,
                          choices=sorted(CAMPAIGNS),
                          help="inject a named fault campaign into every "
                               "sweep step (see `python -m repro faults`)")
    workload.add_argument("--resilience", action="store_true",
                          help="enable failure detection and self-healing "
                               "on every sweep step (docs/RESILIENCE.md)")
    workload.set_defaults(func=run_workload)

    faults = commands.add_parser(
        "faults",
        help="clean-vs-faulted workload comparison under a campaign")
    faults.add_argument("campaign", choices=sorted(CAMPAIGNS),
                        help="named fault campaign to inject")
    faults.add_argument("--cabs", type=int, default=4,
                        help="CABs on the single HUB (default: 4)")
    _add_campaign_options(faults, load=0.3)
    faults.set_defaults(func=run_faults)

    resilience = commands.add_parser(
        "resilience",
        help="clean/healed/unhealed comparison: detection + self-healing")
    resilience.add_argument("campaign", nargs="?", default="hub-link-flap",
                            choices=sorted(CAMPAIGNS),
                            help="fault campaign to heal against "
                                 "(default: hub-link-flap)")
    resilience.add_argument("--cabs-per-hub", type=int, default=3,
                            help="CABs on each of the 2 HUBs (default: 3)")
    resilience.add_argument("--links", type=int, default=2,
                            help="parallel inter-HUB links (default: 2)")
    resilience.add_argument("--duration-ms", type=float, default=12.0,
                            help="measured window in ms (default: 12)")
    resilience.add_argument("--transitions", action="store_true",
                            help="also print the healed run's detector "
                                 "timeline")
    _add_campaign_options(resilience, load=0.25)
    resilience.set_defaults(func=run_resilience)

    observe = commands.add_parser(
        "observe",
        help="run an instrumented scenario, export trace + metrics")
    observe.add_argument("scenario", choices=sorted(OBSERVE_SCENARIOS),
                         help="; ".join(
                             f"{name}: {OBSERVE_SCENARIOS[name][0]}"
                             for name in sorted(OBSERVE_SCENARIOS)))
    observe.add_argument("--out", default="trace.json",
                         help="Chrome trace_event JSON output path "
                              "(default: trace.json)")
    observe.add_argument("--metrics", default=None,
                         help="JSONL metrics dump path "
                              "(default: derived from --out)")
    observe.add_argument("--interval-us", type=float, default=50.0,
                         help="metric sampling period in µs (default: 50)")
    observe.add_argument("--duration-ms", type=float, default=2.0,
                         help="measured window in ms (default: 2)")
    observe.add_argument("--seed", type=int, default=1989,
                         help="config seed; same seed, same trace")
    observe.set_defaults(func=run_observe)

    collectives = commands.add_parser(
        "collectives",
        help="E-COL: HUB-offloaded vs software collectives under "
             "hotspot contention (deterministic output)")
    collectives.set_defaults(func=run_collectives)

    scaleout = commands.add_parser(
        "scaleout",
        help="E-SCL: partitioned scale-out runs on large fabrics, with "
             "a bit-identical digest gate (docs/SCALEOUT.md)")
    scaleout.add_argument(
        "scenario", nargs="?", default="escl-torus-256",
        help="E-SCL scenario name (default: escl-torus-256; see "
             "repro.scaleout.scenarios())")
    scaleout.add_argument(
        "--partitions", default="1,2,4",
        help="comma-separated partition counts (default: 1,2,4; 1 = "
             "single-process reference); later runs are held to the first "
             "one's digest (and event count, unfaulted): exit 1 on drift")
    scaleout.add_argument(
        "--faults", metavar="CAMPAIGN", default=None,
        choices=ESCL_CAMPAIGNS,
        help="apply a repro.faults campaign (E-SCL-sized windows) to "
             "every run shape; partitioned digests must still match the "
             "faulted single-process reference")
    scaleout.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write per-run summaries as JSON")
    scaleout.set_defaults(func=run_scaleout)
    return parser


def main(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = (getattr(args, "func", None) or run_report)(args)
        # A closed pipe raises here, not in the interpreter's exit flush.
        sys.stdout.flush()
        return code
    except NectarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader (``| head``) has seen enough.  Point stdout at
        # /dev/null so the interpreter's own flush at exit cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
