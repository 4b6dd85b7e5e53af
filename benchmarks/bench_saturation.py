"""E-SAT — offered-load sweeps: the saturation knee and hotspot tails.

The workload subsystem drives the full software stack (datagrams, HUB
commands, DMA, thread switches) with synthetic traffic.  Three claims
are checked:

* sweeping offered load on a single 16-port HUB yields a monotone
  throughput curve with an identifiable knee — below it the fabric
  serves what is offered, beyond it throughput plateaus while the
  coordinated-omission-corrected p99 explodes;
* hotspot traffic (the canonical crossbar stressor) degrades p99 latency
  versus uniform random at the *same* offered load, because the hot port
  serialises and blocked packets queue upstream;
* the whole experiment is reproducible: two runs with the same seed
  produce identical curves, sample for sample.

A multi-HUB mesh sweep shows the same knee shape across hub-to-hub
links.
"""

from repro.config import NectarConfig
from repro.sim import units
from repro.stats import ExperimentTable
from repro.topology import mesh_system, single_hub_system
from repro.workload import LoadSweep, Workload

KNEE_LOADS = [0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0]
MESH_LOADS = [0.1, 0.25, 0.45, 0.7, 1.0]


def hub_sweep(seed=1989, loads=KNEE_LOADS):
    cfg = NectarConfig(seed=seed)
    return LoadSweep(lambda: single_hub_system(8, cfg=cfg), loads,
                     pattern="uniform", arrivals="poisson",
                     message_bytes=512, warmup_ns=units.ms(1),
                     duration_ns=units.ms(4)).run()


def mesh_sweep(seed=1989):
    cfg = NectarConfig(seed=seed)
    return LoadSweep(lambda: mesh_system(2, 2, 3, cfg=cfg), MESH_LOADS,
                     pattern="uniform", arrivals="poisson",
                     message_bytes=512, warmup_ns=units.ms(1),
                     duration_ns=units.ms(4)).run()


def tail_comparison(load=0.35, seed=1989):
    """Uniform vs hotspot at the same offered load on one HUB."""
    results = {}
    for pattern, kwargs in (("uniform", {}),
                            ("hotspot", {"fraction": 0.5})):
        system = single_hub_system(8, cfg=NectarConfig(seed=seed))
        results[pattern] = Workload(
            system, pattern=pattern, offered_load=load,
            message_bytes=512, warmup_ns=units.ms(1),
            duration_ns=units.ms(4), pattern_kwargs=kwargs).run()
    return results


def scenario_saturation():
    sweep = hub_sweep()
    rerun = hub_sweep()
    tails = tail_comparison()
    mesh = mesh_sweep()
    knee = sweep.knee()
    return {
        "sweep": sweep,
        "mesh": mesh,
        "tails": tails,
        "monotone": sweep.is_monotone(),
        "saturated": sweep.saturated(),
        "knee_load": knee.offered_load,
        "knee_mbps": knee.result.achieved_mbps,
        "reproducible": [p.result.summary() for p in sweep]
        == [p.result.summary() for p in rerun],
    }


def test_esat_saturation_knee_and_hotspot_tails():
    result = scenario_saturation()
    sweep, tails, mesh = result["sweep"], result["tails"], result["mesh"]
    sweep.table("E-SAT1", "uniform/poisson open loop, 8 CABs on one "
                          "16-port HUB, 512 B").check()

    uniform, hotspot = tails["uniform"], tails["hotspot"]
    table = ExperimentTable("E-SAT2", "hotspot vs uniform at offered 0.35")
    table.add("uniform p99", "-", f"{uniform.p_us(0.99):9.1f} µs")
    table.add("hotspot p99 (50% to one CAB)", "worse than uniform",
              f"{hotspot.p_us(0.99):9.1f} µs",
              hotspot.p_us(0.99) > uniform.p_us(0.99))
    table.add("hotspot achieved", "below uniform",
              f"{hotspot.achieved_mbps:7.1f} Mb/s vs "
              f"{uniform.achieved_mbps:7.1f}",
              hotspot.achieved_mbps < uniform.achieved_mbps)
    table.check()

    mesh.table("E-SAT3", "uniform/poisson open loop, 2x2 HUB mesh, "
                         "3 CABs per HUB").check()

    table = ExperimentTable("E-SAT4", "sweep invariants")
    table.add("throughput monotone in offered load", "yes",
              str(result["monotone"]), result["monotone"])
    table.add("knee identifiable", "yes",
              f"load {result['knee_load']:.2f} "
              f"({result['knee_mbps']:.1f} Mb/s)", result["saturated"])
    table.add("same seed, identical curves", "yes",
              str(result["reproducible"]), result["reproducible"])
    assert mesh.is_monotone() and mesh.saturated()
    table.check()


if __name__ == "__main__":
    result = scenario_saturation()
    result["sweep"].table("E-SAT1", "single-HUB saturation sweep").print()
    result["mesh"].table("E-SAT3", "2x2 mesh saturation sweep").print()
    print(f"\nknee at offered load {result['knee_load']:.2f} "
          f"({result['knee_mbps']:.1f} Mb/s); monotone="
          f"{result['monotone']} reproducible={result['reproducible']}")
