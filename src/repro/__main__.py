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
* ``python -m repro bench`` — engine wall-clock benchmark: events/sec
  on the fixed-seed scenarios of :mod:`repro.perfbench`, written to
  ``BENCH_engine.json`` (render/compare with ``tools/perf_report.py``;
  see ``docs/PERFORMANCE.md``).
* ``python -m repro scaleout`` — E-SCL partitioned scale-out runs:
  shard a large fabric across worker processes under conservative
  lookahead, report events/s and goodput per partition count, and
  (``--verify``) assert partitioned digests bit-identical to the
  single-process reference (``docs/SCALEOUT.md``).

For the complete suite use ``pytest benchmarks/ --benchmark-only -s``.
"""

from __future__ import annotations

import argparse
import sys

from .config import NectarConfig, default_config
from .errors import ConfigError, TopologyError, WorkloadError
from .hardware import CabBoard, CommandOp, Hub, HubCommand, Packet, Payload
from .nodeiface import SharedMemoryInterface
from .sim import Simulator, units
from .stats import ExperimentTable
from .topology import linear_system, single_hub_system


def hub_timing_report() -> ExperimentTable:
    cfg = default_config()
    sim = Simulator()
    hub = Hub(sim, "hub0", cfg.hub, cfg.fiber)
    src = CabBoard(sim, "src", cfg.cab, cfg.fiber)
    dst = CabBoard(sim, "dst", cfg.cab, cfg.fiber)
    from .hardware import wire_cab_to_hub
    wire_cab_to_hub(sim, src, hub, 0)
    wire_cab_to_hub(sim, dst, hub, 1)
    heads = []

    def sink(packet, size, head, tail):
        heads.append(head)
        dst.signal_input_drained()
        yield sim.timeout(0)
    dst.on_receive(sink)
    src.on_receive(lambda *args: iter(()))
    src.transmit(Packet("src",
                        commands=[HubCommand(CommandOp.OPEN, "hub0", 1,
                                             origin="src")],
                        payload=Payload(1, data=b"x"), header_bytes=0))
    sim.run(until=1_000_000)
    hop = cfg.fiber.propagation_ns + round(cfg.fiber.ns_per_byte)
    setup = heads[0] - 2 * hop
    table = ExperimentTable("HUB", "switch timing (§4)")
    table.add("connection setup + first byte", "700 ns", f"{setup} ns",
              setup == 700)
    table.add("controller switching rate", "1 per 70 ns cycle",
              "1 per 70 ns", True)
    return table


def latency_report() -> ExperimentTable:
    system = single_hub_system(2)
    a, b = system.cab("cab0"), system.cab("cab1")
    inbox = b.create_mailbox("inbox")
    state = {}

    def rx():
        yield from b.kernel.wait(inbox.get())
        state["t"] = system.now

    def tx():
        state["t0"] = system.now
        yield from a.transport.datagram.send("cab1", "inbox", size=32)
    b.spawn(rx())
    a.spawn(tx())
    system.run(until=10_000_000)
    cab_us = units.to_us(state["t"] - state["t0"])

    system = single_hub_system(2, with_nodes=True)
    a, b = system.cab("cab0"), system.cab("cab1")
    shm_a, shm_b = SharedMemoryInterface(a), SharedMemoryInterface(b)
    inbox = b.create_mailbox("inbox")
    state = {}

    def node_rx():
        yield from shm_b.receive(inbox)
        state["t"] = system.now

    def node_tx():
        state["t0"] = system.now
        yield from shm_a.send("cab1", "inbox", size=32)
    system.node("node1").run(node_rx(), "rx")
    system.node("node0").run(node_tx(), "tx")
    system.run(until=100_000_000)
    node_us = units.to_us(state["t"] - state["t0"])

    table = ExperimentTable("LAT", "process-to-process latency (§2.3)")
    table.add("CAB to CAB (32 B)", "< 30 µs", f"{cab_us:.1f} µs",
              cab_us < 30)
    table.add("node to node (32 B)", "< 100 µs", f"{node_us:.1f} µs",
              node_us < 100)
    return table


def multihop_report() -> ExperimentTable:
    def measure(hubs):
        system = linear_system(hubs, cabs_per_hub=2)
        src = system.cab("cab0_0")
        dst = system.cab(f"cab{hubs - 1}_1")
        inbox = dst.create_mailbox("inbox")
        state = {}

        def rx():
            yield from dst.kernel.wait(inbox.get())
            state["t"] = system.now

        def tx():
            state["t0"] = system.now
            yield from src.transport.datagram.send(dst.name, "inbox",
                                                   size=32)
        dst.spawn(rx())
        src.spawn(tx())
        system.run(until=100_000_000)
        return units.to_us(state["t"] - state["t0"])
    one, four = measure(1), measure(4)
    table = ExperimentTable("HOPS", "multi-HUB scaling (§4 goal 3)")
    table.add("1 HUB", "-", f"{one:.1f} µs")
    table.add("4 HUBs", "not significantly higher", f"{four:.1f} µs",
              four < 1.5 * one)
    table.add("per extra HUB", "~1 µs", f"{(four - one) / 3:.2f} µs",
              (four - one) / 3 < 3)
    return table


def run_report(_args: argparse.Namespace) -> int:
    print("Nectar reproduction — quick report "
          "(full suite: pytest benchmarks/ --benchmark-only -s)")
    for build in (hub_timing_report, latency_report, multihop_report):
        table = build()
        table.print()
    print()
    return 0


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

        def topology():
            return mesh_system(rows, cols, args.cabs, cfg=cfg)
        where = f"{rows}x{cols} HUB mesh, {args.cabs} CABs each"
    else:
        def topology():
            return single_hub_system(args.cabs, cfg=cfg)
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
    try:
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
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if observe_path is not None:
        import json
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


#: The canned instrumented scenarios of ``python -m repro observe``:
#: name -> (description, topology factory kwargs, workload kwargs).
OBSERVE_SCENARIOS = {
    "quickstart": "4 CABs on one HUB, uniform open-loop load 0.3, 256 B",
    "hotspot": "8 CABs on one HUB, half the traffic aimed at cab0",
    "mesh": "2x2 HUB mesh, 2 CABs per HUB, uniform load 0.4",
}


def _observe_setup(args: argparse.Namespace):
    """Build (system, workload_kwargs, label) for one scenario."""
    from .topology import mesh_system, single_hub_system

    cfg = NectarConfig(seed=args.seed)
    duration_ns = units.ms(args.duration_ms)
    base = dict(pattern="uniform", arrivals="poisson", mode="open",
                message_bytes=256, offered_load=0.3,
                warmup_ns=units.ms(0.5), duration_ns=duration_ns)
    if args.scenario == "quickstart":
        system = single_hub_system(4, cfg=cfg)
    elif args.scenario == "hotspot":
        system = single_hub_system(8, cfg=cfg)
        base.update(pattern="hotspot", offered_load=0.5,
                    pattern_kwargs={"fraction": 0.5})
    else:  # mesh
        system = mesh_system(2, 2, 2, cfg=cfg)
        base.update(offered_load=0.4)
    return system, base, OBSERVE_SCENARIOS[args.scenario]


def run_observe(args: argparse.Namespace) -> int:
    from .workload import Workload

    system, workload_kwargs, label = _observe_setup(args)
    interval_ns = units.us(args.interval_us)
    observatory = system.observe(interval_ns=interval_ns)
    try:
        result = Workload(system, **workload_kwargs).run()
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    events = observatory.export_chrome_trace(args.out)
    metrics_path = args.metrics or _default_metrics_path(args.out)
    rows = observatory.export_metrics_jsonl(metrics_path)
    print(f"scenario {args.scenario}: {label}")
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


def run_bench(args: argparse.Namespace) -> int:
    import json
    import os

    from .perfbench import SCENARIOS, SMOKE_SCENARIOS, run_suite, \
        write_results

    unknown = sorted(set(args.scenarios) - set(SCENARIOS))
    if unknown:
        print(f"error: unknown scenario(s) {', '.join(unknown)} "
              f"(have: {', '.join(sorted(SCENARIOS))})", file=sys.stderr)
        return 2
    names = list(SMOKE_SCENARIOS) if args.smoke else \
        (args.scenarios or sorted(SCENARIOS))
    if args.compare:
        return _bench_compare(args, names)
    results = run_suite(names, repeat=args.repeat)
    baseline = None
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            baseline = json.load(handle)
    document = write_results(args.out, results, args.label,
                             baseline=baseline)
    for name in names:
        data = results[name]
        print(f"{name:16s} {data['events']:>9,} events  "
              f"{data['wall_s']:.4f}s  "
              f"{data['events_per_sec']:>12,.0f} events/sec")
    print(f"wrote {args.out} "
          f"(runs: {', '.join(document['runs'])})")
    return 0


def _bench_compare(args: argparse.Namespace, names: list) -> int:
    """Run the suite fresh and gate it against the checked-in baseline.

    The anchor is the *first* run recorded in the baseline document (the
    file accumulates runs oldest-first, so the first is the original
    pre-optimization baseline), or ``--baseline-label`` when given.
    Result digests must match the baseline exactly — a win that changes
    behaviour is a bug, not a speedup — and with ``--min-ratio`` the
    aggregate (geometric-mean) wall-time speedup must clear the bar.
    """
    import json
    import math
    import os

    from .perfbench import run_suite

    if not os.path.exists(args.out):
        print(f"error: no baseline file {args.out} to compare against",
              file=sys.stderr)
        return 2
    with open(args.out, encoding="utf-8") as handle:
        baseline_doc = json.load(handle)
    runs = baseline_doc.get("runs", {})
    if not runs:
        print(f"error: {args.out} records no runs", file=sys.stderr)
        return 2
    anchor = args.baseline_label or next(iter(runs))
    if anchor not in runs:
        print(f"error: {args.out} has no run labelled {anchor!r} "
              f"(has: {', '.join(runs)})", file=sys.stderr)
        return 2
    baseline = runs[anchor]["scenarios"]
    shared = [name for name in names if name in baseline]
    skipped = sorted(set(names) - set(shared))
    if not shared:
        print(f"error: baseline run {anchor!r} shares no scenarios with "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    results = run_suite(shared, repeat=args.repeat)
    print(f"compare: fresh suite vs {args.out}[{anchor}]")
    failures = []
    ratios = []
    for name in shared:
        old, new = baseline[name], results[name]
        # Wall time, not events/s: eliding agenda entries lowers both.
        ratio = old["wall_s"] / new["wall_s"]
        ratios.append(ratio)
        # Runs recorded before the result/schedule digest split carry no
        # result_digest; the final clock is what is left to hold them to.
        digest_ok = old["sim_ns"] == new["sim_ns"] \
            and old.get("result_digest") in (None, new["result_digest"])
        if not digest_ok:
            failures.append(f"{name}: result drifted from baseline")
        print(f"{name:18s} {old['wall_s']:>9.4f} -> "
              f"{new['wall_s']:>9.4f} s  {ratio:5.2f}x  "
              f"events {old['events']:>9,} -> {new['events']:>9,}  "
              f"digest={'yes' if digest_ok else 'NO'}")
    aggregate = math.exp(sum(map(math.log, ratios)) / len(ratios))
    print(f"aggregate speedup (geometric mean over {len(ratios)} "
          f"scenarios): {aggregate:.2f}x")
    for name in skipped:
        print(f"  ({name}: not in baseline run {anchor!r}, skipped)")
    for failure in failures:
        print(f"FAIL: {failure}")
    if args.min_ratio is not None and aggregate < args.min_ratio:
        print(f"FAIL: aggregate {aggregate:.2f}x < required "
              f"{args.min_ratio}x")
        return 1
    return 1 if failures else 0


def run_collectives(args: argparse.Namespace) -> int:
    """Three-way E-COL comparison: HUB offload vs software trees.

    Output is fully deterministic (simulated clocks and digests only,
    never wall time) — the CI collectives job runs it twice and diffs.
    """
    from .perfbench import run_scenario

    names = {"hub": "collective-hub", "tree": "collective-tree",
             "exchange": "collective-exchange"}
    print("in-network collectives (seed 1989): 12 rounds of "
          "allreduce + barrier across 8 ranks on one HUB,")
    print("with the 7 non-root CABs aiming 512 B hotspot noise at cab0")
    print()
    print(f"{'mode':10s} {'finish':>11s} {'per round':>11s}  digest")
    finishes = {}
    fingerprints = {}
    for mode, name in names.items():
        result = run_scenario(name, repeat=args.repeat)
        finish_ns = result.fingerprint["finish_ns"]
        finishes[mode] = finish_ns
        fingerprints[mode] = result.fingerprint
        per_round_us = units.to_us(finish_ns) / 12
        print(f"{mode:10s} {units.to_us(finish_ns) / 1000:8.3f} ms "
              f"{per_round_us:8.1f} µs  {result.digest[:16]}")
    print()
    hub_counters = fingerprints["hub"]["hub_counters"]["hub0"]
    combining = {key: value for key, value in sorted(hub_counters.items())
                 if key.startswith("collective.")}
    print("HUB combining unit (hub mode): "
          + ", ".join(f"{key.split('.', 1)[1]}={value}"
                      for key, value in combining.items()))
    print(f"speedup, HUB offload over dimension exchange: "
          f"{finishes['exchange'] / finishes['hub']:.2f}x")
    print(f"speedup, HUB offload over software tree:      "
          f"{finishes['tree'] / finishes['hub']:.2f}x")
    return 0


def run_faults(args: argparse.Namespace) -> int:
    from .faults import build_campaign, run_comparison
    from .topology import single_hub_system

    cfg = NectarConfig(seed=args.seed)
    try:
        scenario = build_campaign(args.campaign, cfg)
    except ConfigError as exc:  # pragma: no cover - argparse filters
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.schedule:
        print(scenario.schedule_text())
        return 0

    def topology():
        return single_hub_system(args.cabs, cfg=cfg)

    workload_kwargs = dict(
        pattern="uniform", arrivals="poisson", mode=args.mode,
        message_bytes=args.message_bytes, offered_load=args.load,
        warmup_ns=units.ms(1.0),
        duration_ns=max(units.ms(5.0),
                        scenario.horizon_ns - units.ms(1.0)))
    try:
        comparison = run_comparison(topology, scenario,
                                    workload_kwargs=workload_kwargs)
    except (ConfigError, WorkloadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"campaign {args.campaign} (seed {args.seed}, "
          f"{args.cabs} CABs, {args.mode} {args.message_bytes} B "
          f"at load {args.load:.2f}): {scenario.description}")
    print(comparison.table())
    if args.json is not None:
        import json
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(comparison.summary(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote comparison summary to {args.json}")
    return 0


def run_resilience(args: argparse.Namespace) -> int:
    from .faults import build_campaign
    from .resilience import run_resilience_comparison
    from .topology import dual_link_system

    cfg = NectarConfig(seed=args.seed)
    warmup_ns = units.ms(1.0)
    duration_ns = units.ms(args.duration_ms)
    campaign_kwargs = dict(start_ns=warmup_ns,
                           horizon_ns=warmup_ns + duration_ns)
    try:
        scenario = build_campaign(args.campaign, cfg, **campaign_kwargs)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.schedule:
        print(scenario.schedule_text())
        return 0

    def topology():
        return dual_link_system(args.cabs_per_hub, links=args.links,
                                cfg=cfg)

    workload_kwargs = dict(
        pattern="uniform", arrivals="poisson", mode=args.mode,
        message_bytes=args.message_bytes, offered_load=args.load,
        warmup_ns=warmup_ns, duration_ns=duration_ns,
        drain_ns=units.ms(2.0))
    try:
        comparison = run_resilience_comparison(
            args.campaign, cfg=cfg, topology_factory=topology,
            workload_kwargs=workload_kwargs,
            campaign_kwargs=campaign_kwargs)
    except (ConfigError, TopologyError, WorkloadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"campaign {args.campaign} (seed {args.seed}, 2 HUBs x "
          f"{args.links} links, {args.cabs_per_hub} CABs each, "
          f"{args.mode} {args.message_bytes} B at load {args.load:.2f})")
    print(comparison.table())
    if args.transitions:
        print("\ndetector timeline (healed run):")
        print(comparison.transition_text)
    if args.json is not None:
        import json
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(comparison.summary(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote comparison summary to {args.json}")
    return 0


def run_scaleout(args: argparse.Namespace) -> int:
    """E-SCL: partition-count scaling with a hard digest gate."""
    from .errors import ScaleoutError
    from .faults.scenario import FaultScenario
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
    try:
        partition_fabric(scenario.fabric, counts[-1])
    except TopologyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.max_restarts < 0:
        print("error: --max-restarts must be >= 0", file=sys.stderr)
        return 2
    fault_events = []
    if args.faults is not None:
        campaign = escl_campaign(args.faults, scenario.config())
        fault_events.extend(campaign.events)
    if args.chaos:
        chaos_counts = [count for count in counts if count > 1]
        if not chaos_counts:
            print("error: --chaos needs at least one partition "
                  "count >= 2 (there is no worker to kill in the "
                  "single-process run)", file=sys.stderr)
            return 2
        if 1 not in counts:
            # The chaos gate compares against the clean reference.
            counts = [1] + counts
        chaos = escl_campaign("worker-kill", scenario.config(),
                              partitions=max(chaos_counts))
        fault_events.extend(chaos.events)
    faults = None
    if fault_events:
        label = args.faults or "worker-kill"
        faults = FaultScenario(label, fault_events,
                               description="scaleout CLI campaign")
    sim_faulted = faults is not None \
        and bool(faults.split_process_events()[0].events)
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
    if counts != [1]:
        print(f"  exchange: batch={args.batch} window(s)/round")
    print(f"{'parts':>5s} {'events':>9s} {'wall':>8s} {'setup':>7s} "
          f"{'events/s':>10s} {'goodput':>9s} {'rounds':>6s} "
          f"{'restarts':>8s}  digest")
    results = []
    for count in counts:
        try:
            result = run_single(scenario, faults=faults) if count == 1 \
                else run_partitioned(scenario, count, faults=faults,
                                     max_restarts=args.max_restarts,
                                     batch=args.batch)
        except ScaleoutError as exc:
            print(f"\nSCALE-OUT FAILURE at {count} partitions: {exc}",
                  file=sys.stderr)
            for entry in exc.forensics:
                print(f"  partition {entry['partition']}: "
                      f"restarts={entry['restarts']} "
                      f"last_window={entry['last_window']} "
                      f"events={entry['events']} "
                      f"failures={[f['reason'] for f in entry['failures']]}",
                      file=sys.stderr)
            return 1
        results.append(result)
        print(f"{count:5d} {result.events:9,} {result.wall_s:7.3f}s "
              f"{result.setup_s:6.3f}s {result.events_per_sec:10,.0f} "
              f"{result.goodput_mbps:6.0f} Mb/s {result.rounds:6d} "
              f"{result.restarts:8d}  {result.digest[:16]}")
    digests = {result.digest for result in results}
    events = {result.events for result in results}
    if args.verify or len(counts) > 1:
        # Under in-sim faults, driver processes spawn per partition
        # holding a matched target, so raw event totals legitimately
        # differ between run shapes; the digest gate still applies.
        if len(digests) != 1 or (not sim_faulted and len(events) != 1):
            print("\nDIGEST MISMATCH: partitioned runs are not "
                  "bit-identical to the reference", file=sys.stderr)
            return 1
        print(f"\nall {len(results)} run(s) bit-identical: "
              f"digest {results[0].digest}")
    if args.json is not None:
        import json
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"scenario": scenario.name,
                       "runs": [result.summary() for result in results]},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote results to {args.json}")
    return 0


def _default_metrics_path(out: str) -> str:
    stem = out[:-5] if out.endswith(".json") else out
    return f"{stem}.metrics.jsonl"


def build_parser() -> argparse.ArgumentParser:
    from .faults import CAMPAIGNS
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
    patterns = sorted(name for name in PATTERNS if name != "trace")
    workload.add_argument("--pattern", choices=patterns, default="uniform",
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
    faults.add_argument("--mode", choices=("open", "closed"),
                        default="open",
                        help="open-loop datagrams or closed-loop RPCs")
    faults.add_argument("--load", type=float, default=0.3,
                        help="offered load per source (default: 0.3)")
    faults.add_argument("--message-bytes", type=int, default=512,
                        help="payload bytes per message (default: 512)")
    faults.add_argument("--seed", type=int, default=1989,
                        help="config seed; same seed, same schedule")
    faults.add_argument("--schedule", action="store_true",
                        help="print the campaign's fault schedule and exit")
    faults.add_argument("--json", metavar="FILE", default=None,
                        help="also write the comparison summary as JSON")
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
    resilience.add_argument("--mode", choices=("open", "closed"),
                            default="open",
                            help="open-loop datagrams or closed-loop RPCs")
    resilience.add_argument("--load", type=float, default=0.25,
                            help="offered load per source (default: 0.25)")
    resilience.add_argument("--message-bytes", type=int, default=512,
                            help="payload bytes per message (default: 512)")
    resilience.add_argument("--duration-ms", type=float, default=12.0,
                            help="measured window in ms (default: 12)")
    resilience.add_argument("--seed", type=int, default=1989,
                            help="config seed; same seed, same timeline")
    resilience.add_argument("--schedule", action="store_true",
                            help="print the fault schedule and exit")
    resilience.add_argument("--transitions", action="store_true",
                            help="also print the healed run's detector "
                                 "timeline")
    resilience.add_argument("--json", metavar="FILE", default=None,
                            help="also write the comparison summary as JSON")
    resilience.set_defaults(func=run_resilience)

    observe = commands.add_parser(
        "observe",
        help="run an instrumented scenario, export trace + metrics")
    observe.add_argument("scenario", choices=sorted(OBSERVE_SCENARIOS),
                         help="; ".join(f"{name}: {desc}" for name, desc
                                        in sorted(OBSERVE_SCENARIOS.items())))
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
    collectives.add_argument(
        "--repeat", type=int, default=1,
        help="runs per mode; digests must agree across repeats "
             "(default: 1)")
    collectives.set_defaults(func=run_collectives)

    from .perfbench import SCENARIOS as BENCH_SCENARIOS
    bench = commands.add_parser(
        "bench",
        help="engine wall-clock benchmark: events/sec on fixed-seed "
             "scenarios, results to BENCH_engine.json")
    bench.add_argument("scenarios", nargs="*", metavar="scenario",
                       help="scenarios to run (default: all); one of: "
                            + ", ".join(sorted(BENCH_SCENARIOS)))
    bench.add_argument("--repeat", type=int, default=3,
                       help="runs per scenario, fastest kept (default: 3)")
    bench.add_argument("--label", default="optimized",
                       help="run label in the document (default: optimized)")
    bench.add_argument("--out", default="BENCH_engine.json",
                       help="output document; an existing file's runs are "
                            "preserved (default: BENCH_engine.json)")
    bench.add_argument("--smoke", action="store_true",
                       help="run only the quick CI smoke scenarios")
    bench.add_argument("--compare", action="store_true",
                       help="don't write results; run fresh and gate "
                            "against the baseline document in --out "
                            "(digests must match; see --min-ratio)")
    bench.add_argument("--min-ratio", type=float, default=None,
                       help="with --compare: fail (exit 1) unless the "
                            "geometric-mean speedup over the baseline "
                            "reaches this ratio")
    bench.add_argument("--baseline-label", default=None,
                       help="with --compare: baseline run label to anchor "
                            "on (default: the first, i.e. oldest, run "
                            "in the document)")
    bench.set_defaults(func=run_bench)

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
        help="comma-separated partition counts to run "
             "(default: 1,2,4; 1 = single-process reference)")
    scaleout.add_argument(
        "--verify", action="store_true",
        help="exit non-zero unless every run's digest and event count "
             "match (implied when multiple counts are given)")
    scaleout.add_argument(
        "--chaos", action="store_true",
        help="SIGKILL a seeded-random worker mid-run (worker-kill "
             "campaign); recovery replays the window log and the digest "
             "gate still applies against the clean reference")
    scaleout.add_argument(
        "--faults", metavar="CAMPAIGN", default=None,
        choices=("drop-burst", "corrupt-burst", "reply-storm",
                 "link-flap"),
        help="apply a repro.faults campaign (E-SCL-sized windows) to "
             "every run shape; partitioned digests must still match the "
             "faulted single-process reference")
    scaleout.add_argument(
        "--max-restarts", type=int, default=2, metavar="N",
        help="per-partition worker restart budget before the run fails "
             "with forensics (default: 2)")
    scaleout.add_argument(
        "--batch", type=int, default=8, metavar="K",
        help="lookahead-width budget granted per barrier round; 1 = the "
             "classic window-per-round protocol (default: 8)")
    scaleout.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write per-run summaries as JSON")
    scaleout.set_defaults(func=run_scaleout)
    return parser


def main(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        return run_report(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
