#!/usr/bin/env python3
"""The vision application of §7: Warp → Sun frames + spatial DB queries.

A Warp systolic machine does low-level vision and streams image frames to
a Sun workstation; extracted features go to a spatial database
distributed over three CABs; the Sun issues region queries against the
shards while frames keep flowing.  The paper's point: one network serves
both the high-bandwidth and the low-latency traffic at once.

Run:  python examples/vision_pipeline.py
"""

from repro.apps import VisionApplication
from repro.config import NectarConfig
from repro.system import NectarSystem


def main() -> None:
    system = NectarSystem(NectarConfig())
    hub = system.add_hub("hub0")
    warp = system.add_cab("warp-cab", hub)
    sun = system.add_cab("sun-cab", hub)
    shards = [system.add_cab(f"db-cab{i}", hub) for i in range(3)]
    system.add_node("warp", warp, machine_type="warp")
    system.add_node("sun4", sun, machine_type="sun")
    system.finalize()

    app = VisionApplication(
        system, warp, sun, shards,
        frame_bytes=256 << 10,       # 512×512 8-bit frames
        features_per_frame=32,
        queries_per_frame=4)
    app.run(num_frames=8, until=60_000_000_000)

    print("vision pipeline (8 frames of 256 KB):")
    print(f"  frames delivered   : {app.frames_received}")
    print(f"  frame throughput   : "
          f"{app.frame_meter.mbytes_per_second:.2f} MB/s "
          f"({app.frame_meter.mbits_per_second:.1f} Mb/s of the "
          f"100 Mb/s fiber)")
    summary = app.query_latency.summary()
    print(f"  DB queries served  : {summary['count']}")
    print(f"  query latency mean : {summary['mean_us']:.1f} µs")
    print(f"  query latency p95  : {summary['p95_us']:.1f} µs")
    print(f"  features stored    : "
          f"{sum(shard.inserts for shard in app.shards)} across "
          f"{len(app.shards)} shards")
    per_shard = [shard.queries_served for shard in app.shards]
    print(f"  shard query load   : {per_shard}")


if __name__ == "__main__":
    main()
