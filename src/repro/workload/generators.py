"""Load generators: kernel threads that drive a system with traffic.

Generators run as CAB kernel threads and emit through the existing
transport protocols, so every message pays the full software path the
paper models — datalink commands, DMA, checksums, thread switches.

Two loop disciplines are provided:

* **Open loop** — sources emit on an arrival schedule that does not care
  whether the system keeps up (like independent users).  Messages go out
  as unreliable datagrams; the sink timestamps arrivals.  When the
  transport blocks under backpressure the *intended* departure times keep
  advancing, and the SLO recorder charges the queueing delay to latency
  (coordinated-omission-aware).  Offered load beyond saturation shows up
  as exploding response time and loss, exactly as in a real system.
* **Closed loop** — a fixed window of workers per source each issue an
  RPC, wait for the response, then immediately issue the next.  Offered
  load self-limits at saturation (throughput plateaus, latency grows
  only with queue depth ≈ window), the classic closed-system behaviour.

:class:`Workload` assembles hosts + generators over a built
:class:`~repro.system.builder.NectarSystem` and runs one measurement:
warmup, measured window, drain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..config import FIBER_BYTES_PER_NS
from ..errors import DatalinkError, TransportError, WorkloadError
from ..sim import units
from .arrivals import ArrivalProcess, make_arrivals
from .patterns import TrafficPattern, make_pattern
from .slo import SLORecorder

#: Mailbox names the workload subsystem claims on every participating CAB.
SINK_MAILBOX = "wl-sink"
SERVICE_MAILBOX = "wl-srv"
#: Size of a closed-loop server's response.
REPLY_BYTES = 32


class WorkloadHost:
    """Per-CAB receive plumbing: a sink thread and (closed loop) a server."""

    def __init__(self, stack, recorder: SLORecorder,
                 serve: bool = False) -> None:
        self.stack = stack
        self.recorder = recorder
        self.received = 0
        self.inbox = stack.create_mailbox(SINK_MAILBOX)
        stack.spawn(self._sink(), name="wl-sink")
        if serve:
            self.service = stack.create_mailbox(SERVICE_MAILBOX)
            stack.spawn(self._server(), name="wl-srv")

    def _sink(self):
        kernel = self.stack.kernel
        while True:
            message = yield from kernel.wait(self.inbox.get())
            meta = message.meta
            self.received += 1
            self.recorder.record_delivery(meta["intended_ns"],
                                          meta["sent_ns"],
                                          self.stack.sim.now, message.size)

    def _server(self):
        kernel = self.stack.kernel
        while True:
            request = yield from kernel.wait(self.service.get())
            yield from self.stack.transport.rpc.respond(
                request, size=REPLY_BYTES)


class OpenLoopGenerator:
    """One source emitting datagrams on an arrival schedule."""

    def __init__(self, stack, pattern: TrafficPattern,
                 arrivals: ArrivalProcess, recorder: SLORecorder,
                 message_bytes: int, end_ns: int) -> None:
        self.stack = stack
        self.pattern = pattern
        self.arrivals = arrivals
        self.recorder = recorder
        self.message_bytes = message_bytes
        self.end_ns = end_ns
        self.emitted = 0

    def start(self) -> None:
        self.stack.spawn(self._body(), name="wl-open")

    def _plan(self, base: int) -> list[tuple[int, str]]:
        """Pre-draw the (intended time, destination) schedule.

        Offered load is a property of the *arrival schedule*, not of how
        far the emitter gets: planning up front lets every intended send
        be accounted even when backpressure stalls emission, so measured
        efficiency genuinely collapses past saturation instead of the
        offered rate quietly following the achieved rate down.
        """
        src = self.stack.name
        plan = []
        intended = base + self.arrivals.next_gap()
        while intended < self.end_ns:
            plan.append((intended, self.pattern.destination(src)))
            intended += self.arrivals.next_gap()
        return plan

    def _body(self):
        sim = self.stack.sim
        kernel = self.stack.kernel
        plan = self._plan(sim.now)
        for intended, _ in plan:
            self.recorder.record_send(intended, self.message_bytes)
        for intended, dst in plan:
            if sim.now < intended:
                yield from kernel.sleep(intended - sim.now)
            meta = {"intended_ns": intended, "sent_ns": sim.now}
            try:
                yield from self.stack.transport.datagram.send(
                    dst, SINK_MAILBOX, size=self.message_bytes, meta=meta)
                self.emitted += 1
            except (TransportError, DatalinkError):
                self.recorder.record_error(intended)


class ClosedLoopGenerator:
    """A window of request-response workers per source."""

    def __init__(self, stack, pattern: TrafficPattern,
                 recorder: SLORecorder, message_bytes: int, end_ns: int,
                 window_depth: int = 4) -> None:
        if window_depth < 1:
            raise WorkloadError(f"window depth must be >= 1, "
                                f"got {window_depth}")
        self.stack = stack
        self.pattern = pattern
        self.recorder = recorder
        self.message_bytes = message_bytes
        self.end_ns = end_ns
        self.window_depth = window_depth
        self.completed = 0

    def start(self) -> None:
        for worker in range(self.window_depth):
            self.stack.spawn(self._worker(), name=f"wl-closed{worker}")

    def _worker(self):
        sim = self.stack.sim
        src = self.stack.name
        while sim.now < self.end_ns:
            dst = self.pattern.destination(src)
            issued = sim.now
            self.recorder.record_send(issued, self.message_bytes)
            try:
                yield from self.stack.transport.rpc.request(
                    dst, SERVICE_MAILBOX, size=self.message_bytes)
            except (TransportError, DatalinkError):
                self.recorder.record_error(issued)
                continue
            self.completed += 1
            self.recorder.record_delivery(issued, issued, sim.now,
                                          self.message_bytes)


@dataclass
class WorkloadResult:
    """One workload run's outcome."""

    pattern: str
    mode: str
    offered_load: float
    message_bytes: int
    sources: int
    duration_ns: int
    recorder: SLORecorder = field(repr=False)

    @property
    def offered_mbps(self) -> float:
        return self.recorder.offered_mbps

    @property
    def achieved_mbps(self) -> float:
        return self.recorder.achieved_mbps

    @property
    def efficiency(self) -> float:
        """Achieved / offered throughput (1.0 below saturation)."""
        if self.recorder.offered_mbps <= 0:
            return 0.0
        return self.recorder.achieved_mbps / self.recorder.offered_mbps

    def p_us(self, fraction: float, corrected: bool = True) -> float:
        return self.recorder.percentile_us(fraction, corrected=corrected)

    def summary(self) -> dict:
        return {
            "pattern": self.pattern,
            "mode": self.mode,
            "offered_load": self.offered_load,
            "message_bytes": self.message_bytes,
            "sources": self.sources,
            "efficiency": self.efficiency,
            **self.recorder.summary(),
        }


class Workload:
    """One load-test: pattern × arrivals × loop discipline on a system.

    ``offered_load`` is the per-source offered rate as a fraction of the
    fiber line rate (100 Mb/s in the prototype): at ``0.25`` each source
    intends to emit ``0.25 * 12.5 MB/s`` of payload.  The measurement
    window opens after ``warmup_ns`` and lasts ``duration_ns``; the
    simulator then runs ``drain_ns`` longer so in-flight tails complete.
    """

    def __init__(self, system, *,
                 pattern: str = "uniform",
                 arrivals: str = "poisson",
                 mode: str = "open",
                 message_bytes: int = 512,
                 offered_load: float = 0.2,
                 warmup_ns: Optional[int] = None,
                 duration_ns: Optional[int] = None,
                 drain_ns: Optional[int] = None,
                 window_depth: int = 4,
                 salt: str = "wl",
                 pattern_kwargs: Optional[dict] = None) -> None:
        if mode not in ("open", "closed"):
            raise WorkloadError(f"unknown workload mode {mode!r}")
        if not offered_load > 0:
            raise WorkloadError(f"offered load must be positive, "
                                f"got {offered_load}")
        if message_bytes < 1:
            raise WorkloadError(f"message size must be >= 1 byte, "
                                f"got {message_bytes}")
        self.system = system
        self.cfg = system.cfg
        self.endpoints = list(system.cabs)
        self.pattern_name = pattern
        self.arrivals_name = arrivals
        self.mode = mode
        self.message_bytes = message_bytes
        self.offered_load = offered_load
        self.window_depth = window_depth
        self.salt = salt
        self.pattern_kwargs = dict(pattern_kwargs or {})
        self.warmup_ns = units.ms(1) if warmup_ns is None else warmup_ns
        self.duration_ns = units.ms(5) if duration_ns is None \
            else duration_ns
        self.drain_ns = units.ms(2) if drain_ns is None else drain_ns
        if self.duration_ns < 1:
            raise WorkloadError("measurement window must be >= 1 ns")
        self.recorder: Optional[SLORecorder] = None

    @property
    def mean_gap_ns(self) -> float:
        """Per-source mean inter-arrival gap for the offered load."""
        rate = self.offered_load * FIBER_BYTES_PER_NS
        return self.message_bytes / rate

    def _build_pattern(self) -> TrafficPattern:
        rng = self.cfg.rng_stream(f"{self.salt}:pattern")
        return make_pattern(self.pattern_name, self.endpoints, rng,
                            **self.pattern_kwargs)

    def run(self) -> WorkloadResult:
        """Install hosts and generators, run the measurement, report."""
        base = self.system.now
        window = (base + self.warmup_ns,
                  base + self.warmup_ns + self.duration_ns)
        end_ns = window[1]
        recorder = SLORecorder(f"{self.salt}:{self.pattern_name}",
                               window=window)
        self.recorder = recorder
        pattern = self._build_pattern()
        stacks = [self.system.cab(name) for name in self.endpoints]
        hosts = [WorkloadHost(stack, recorder, serve=(self.mode == "closed"))
                 for stack in stacks]
        generators = []
        for stack in stacks:
            if self.mode == "open":
                arrivals = make_arrivals(
                    self.arrivals_name, self.mean_gap_ns,
                    self.cfg.rng_stream(
                        f"{self.salt}:arrivals:{stack.name}"))
                generator = OpenLoopGenerator(
                    stack, pattern, arrivals, recorder, self.message_bytes,
                    end_ns)
            else:
                generator = ClosedLoopGenerator(
                    stack, pattern, recorder, self.message_bytes, end_ns,
                    window_depth=self.window_depth)
            generator.start()
            generators.append(generator)
        self.system.run(until=end_ns + self.drain_ns)
        self.hosts = hosts
        self.generators = generators
        return WorkloadResult(
            pattern=self.pattern_name, mode=self.mode,
            offered_load=self.offered_load,
            message_bytes=self.message_bytes, sources=len(self.endpoints),
            duration_ns=self.duration_ns, recorder=recorder)
