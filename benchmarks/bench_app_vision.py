"""E19 — the vision application (§7).

"It requires both high bandwidth for image transfer and low latency for
communication between nodes in the database."  The bench runs the Warp →
Sun frame pipeline concurrently with spatial-database queries and checks
both requirements are met simultaneously.
"""

from repro.apps import VisionApplication
from repro.stats import ExperimentTable
from repro.topology import single_hub_system


def scenario_vision(num_frames=4, frame_bytes=128_000):
    system = single_hub_system(8)
    app = VisionApplication(
        system, system.cab("cab0"), system.cab("cab1"),
        [system.cab(f"cab{i}") for i in (2, 3, 4)],
        frame_bytes=frame_bytes, features_per_frame=16,
        queries_per_frame=3)
    app.run(num_frames=num_frames, until=20_000_000_000)
    assert app.finished
    return {
        "frames": app.frames_received,
        "frame_mbytes_per_s": app.frame_meter.mbytes_per_second,
        "query_mean_us": app.query_latency.mean_us,
        "features_stored": sum(s.inserts for s in app.shards),
    }


def test_e19_vision_pipeline():
    result = scenario_vision()
    table = ExperimentTable("E19", "Vision: Warp→Sun frames + DB queries")
    table.add("frames delivered", "4", str(result["frames"]),
              result["frames"] == 4)
    table.add("frame throughput", "high bandwidth (several MB/s)",
              f"{result['frame_mbytes_per_s']:.1f} MB/s",
              result["frame_mbytes_per_s"] > 3)
    table.add("DB query latency (mean)", "low latency (~100 µs RPC)",
              f"{result['query_mean_us']:.0f} µs",
              result["query_mean_us"] < 500)
    table.add("features stored", "64", str(result["features_stored"]),
              result["features_stored"] == 64)
    table.check()
