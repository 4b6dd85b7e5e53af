#!/usr/bin/env python3
"""Load-test a Nectar system with the workload subsystem.

Sweeps offered load on a single-HUB system to find its saturation knee,
then contrasts hotspot against uniform traffic at the same offered load.

Run:  python examples/load_test.py
For bigger sweeps use the CLI:  python -m repro workload --help
"""

from repro.config import NectarConfig
from repro.sim import units
from repro.topology import single_hub_system
from repro.workload import LoadSweep, Workload

CABS = 6
MESSAGE_BYTES = 512


def build():
    return single_hub_system(CABS, cfg=NectarConfig(seed=1989))


def main() -> None:
    # --- 1. step offered load to the saturation knee ---------------------
    sweep = LoadSweep(build, loads=[0.15, 0.35, 0.6, 0.9],
                      pattern="uniform", arrivals="poisson",
                      message_bytes=MESSAGE_BYTES,
                      warmup_ns=units.ms(1), duration_ns=units.ms(2)).run()
    sweep.table("LOAD", f"uniform random, {CABS} CABs, "
                        f"{MESSAGE_BYTES} B messages").print()
    knee = sweep.knee()
    print(f"\nsaturation knee: offered load {knee.offered_load:.2f} "
          f"-> {knee.result.achieved_mbps:.1f} Mb/s, "
          f"p99 {knee.result.p_us(0.99):.1f} µs")

    # --- 2. hotspot tail latency at the same offered load ----------------
    uniform = Workload(build(), pattern="uniform", offered_load=0.35,
                       message_bytes=MESSAGE_BYTES, warmup_ns=units.ms(1),
                       duration_ns=units.ms(2)).run()
    hotspot = Workload(build(), pattern="hotspot", offered_load=0.35,
                       message_bytes=MESSAGE_BYTES, warmup_ns=units.ms(1),
                       duration_ns=units.ms(2),
                       pattern_kwargs={"fraction": 0.7}).run()
    print(f"\nat offered load 0.35: uniform p99 "
          f"{uniform.p_us(0.99):7.1f} µs, hotspot p99 "
          f"{hotspot.p_us(0.99):7.1f} µs "
          f"({hotspot.p_us(0.99) / uniform.p_us(0.99):.1f}x worse — the "
          f"hot port serialises)")


if __name__ == "__main__":
    main()
