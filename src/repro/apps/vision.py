"""The vision application of §7.

"The application uses a Warp machine for low-level vision analysis and
Sun workstations for manipulating image features that are stored in a
distributed spatial database.  It requires both high bandwidth for image
transfer and low latency for communication between nodes in the
database."  The computational model is static: tasks are assigned to
nodes at start-up.

Pipeline: a Warp task streams image frames (byte-stream protocol) to a
Sun analysis task and posts extracted features to a distributed spatial
database sharded across CABs; the analysis task issues region queries
(request-response protocol) against the shards and measures latency.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..nectarine.api import NectarineRuntime, Task
from ..stats.recorders import LatencyRecorder, ThroughputMeter

if TYPE_CHECKING:  # pragma: no cover
    from ..system.builder import CabStack, NectarSystem

_FEATURE = struct.Struct("<IHHB")
_QUERY = struct.Struct("<HHHH")
#: Side of the square image features are placed in (pixels).
IMAGE_EXTENT = 512
#: Per-feature match cost of a shard's linear query scan.
MATCH_COST_NS = 2_000


@dataclass(frozen=True)
class Feature:
    """One image feature in the spatial database."""

    feature_id: int
    x: int
    y: int
    kind: int

    def pack(self) -> bytes:
        return _FEATURE.pack(self.feature_id, self.x, self.y, self.kind)

    @classmethod
    def unpack_all(cls, data: bytes) -> list["Feature"]:
        return [cls(*_FEATURE.unpack_from(data, offset))
                for offset in range(0, len(data), _FEATURE.size)]


def pack_query(x0: int, y0: int, x1: int, y1: int) -> bytes:
    return _QUERY.pack(x0, y0, x1, y1)


class SpatialDatabaseShard:
    """One shard of the distributed spatial database (a server task)."""

    def __init__(self, runtime: NectarineRuntime, name: str,
                 location: "CabStack") -> None:
        self.task = runtime.create_task(name, location)
        self.features: list[Feature] = []
        self.queries_served = 0
        self.inserts = 0
        self.task.start(self._serve)

    def _serve(self, task: Task):
        kernel = task.location.kernel
        while True:
            message = yield from task.receive()
            if message.kind == "request":
                x0, y0, x1, y1 = _QUERY.unpack(message.data)
                # Linear scan of the shard, charged per feature examined.
                yield from kernel.compute(
                    MATCH_COST_NS * max(len(self.features), 1))
                hits = [f for f in self.features
                        if x0 <= f.x <= x1 and y0 <= f.y <= y1]
                self.queries_served += 1
                yield from task.respond(
                    message, b"".join(f.pack() for f in hits))
            else:
                # Feature insertion batch from the Warp task.
                for feature in Feature.unpack_all(message.data):
                    self.features.append(feature)
                    self.inserts += 1


class VisionApplication:
    """Warp → Sun image pipeline plus spatial-database queries."""

    def __init__(self, system: "NectarSystem",
                 warp: "CabStack", sun: "CabStack",
                 shards: list["CabStack"],
                 frame_bytes: int = 256 << 10,
                 features_per_frame: int = 32,
                 queries_per_frame: int = 4) -> None:
        self.system = system
        self.runtime = NectarineRuntime(system)
        self.frame_bytes = frame_bytes
        self.features_per_frame = features_per_frame
        self.queries_per_frame = queries_per_frame
        self.rng = system.cfg.rng_stream("vision")
        self.shards = [SpatialDatabaseShard(self.runtime, f"db{i}", shard)
                       for i, shard in enumerate(shards)]
        self.warp_task = self.runtime.create_task("warp", warp)
        self.sun_task = self.runtime.create_task("sun", sun)
        self.frame_meter = ThroughputMeter("frames")
        self.query_latency = LatencyRecorder("query")
        self.frames_received = 0
        self._done = system.sim.event()

    def _shard_for(self, feature: Feature) -> SpatialDatabaseShard:
        cell = (feature.x * 7919 + feature.y) % len(self.shards)
        return self.shards[cell]

    def run(self, num_frames: int,
            until: Optional[int] = None) -> "VisionApplication":
        """Run the pipeline for ``num_frames`` frames."""
        self.warp_task.start(lambda task: self._warp_body(task, num_frames))
        self.sun_task.start(lambda task: self._sun_body(task, num_frames))
        self.system.run(until=until)
        return self

    # ------------------------------------------------------------------

    def _warp_body(self, task: Task, num_frames: int):
        """Low-level vision on the Warp: frames out, features out."""
        for frame_index in range(num_frames):
            # Stream the frame to the Sun (high bandwidth requirement).
            yield from task.send(self.sun_task, self.frame_bytes,
                                 protocol="stream")
            # Post this frame's features to the database shards.
            batches: dict[str, list[Feature]] = {}
            for k in range(self.features_per_frame):
                feature = Feature(
                    frame_index * self.features_per_frame + k,
                    self.rng.randrange(IMAGE_EXTENT),
                    self.rng.randrange(IMAGE_EXTENT),
                    self.rng.randrange(8))
                shard = self._shard_for(feature)
                batches.setdefault(shard.task.name, []).append(feature)
            for shard in self.shards:
                features = batches.get(shard.task.name)
                if not features:
                    continue
                yield from task.send(
                    shard.task,
                    b"".join(f.pack() for f in features))

    def _sun_body(self, task: Task, num_frames: int):
        """Feature manipulation on the Sun: consume frames, query DB."""
        sim = self.system.sim
        self.frame_meter.start(sim.now)
        for _frame in range(num_frames):
            message = yield from task.receive()
            self.frames_received += 1
            self.frame_meter.record(message.size, sim.now)
            for _q in range(self.queries_per_frame):
                x = self.rng.randrange(IMAGE_EXTENT - 64)
                y = self.rng.randrange(IMAGE_EXTENT - 64)
                shard = self.shards[self.rng.randrange(len(self.shards))]
                started = sim.now
                response = yield from task.request(
                    shard.task, pack_query(x, y, x + 64, y + 64))
                self.query_latency.add(sim.now - started)
        self._done.succeed()

    @property
    def finished(self) -> bool:
        return self._done.triggered
