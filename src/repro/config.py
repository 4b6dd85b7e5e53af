"""Central configuration: every timing and size parameter of the model.

Values the paper states are used verbatim and cite the section.  Values the
paper implies but does not state (per-layer CPU costs on the 16 MHz SPARC,
UNIX overheads on the Sun-3/4 class nodes, LAN baseline software costs) are
calibrated so the stated end-to-end goals land where §2.3 puts them; each
such value carries a comment.  Everything is overridable through
:class:`NectarConfig`, so benchmarks can sweep and ablate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from .errors import ConfigError
from .sim import units


@dataclass
class HubConfig:
    """HUB crossbar-switch parameters (§4)."""

    #: Controller cycle time — "every 70 nanosecond cycle" (§4, goal 2).
    cycle_ns: int = 70
    #: I/O ports per HUB — 16 in the prototype (§4.1).
    num_ports: int = 16
    #: Cycles to set up a connection and transfer the first byte — "ten
    #: cycles (700 nanoseconds)" (§4, goal 1).
    setup_cycles: int = 10
    #: Cycles of latency to move a byte through an established connection —
    #: "five cycles (350 nanoseconds)" (§4, goal 1).
    transfer_cycles: int = 5
    #: Input queue per port, which bounds the packet-switched packet size —
    #: "the length of the input queue, and thus the maximum packet size, is
    #: 1 kilobyte" (§4.2.3).
    input_queue_bytes: int = 1024
    #: Cycles the I/O port spends extracting a command from the incoming
    #: byte stream before handing it on.  4 cycles, so that command
    #: extraction (4) + controller execution (1) + first-byte transfer (5)
    #: reproduces the 10-cycle connection-plus-first-byte figure (§4).
    port_command_cycles: int = 4

    @property
    def setup_ns(self) -> int:
        return self.setup_cycles * self.cycle_ns

    @property
    def transfer_ns(self) -> int:
        return self.transfer_cycles * self.cycle_ns


@dataclass
class FiberConfig:
    """Fiber-optic link parameters (§3.2)."""

    #: Effective bandwidth per fiber line, TAXI-limited — "100
    #: megabits/second" (§3.2).
    bandwidth_mbits: float = 100.0
    #: One-way propagation delay.  The paper's latency goals exclude fiber
    #: transmission delays (§2.3); 10 m of fiber ≈ 50 ns.
    propagation_ns: int = 50
    #: Packet drop probability (fault injection; 0 in the healthy system).
    drop_probability: float = 0.0
    #: Payload corruption probability (fault injection).
    corrupt_probability: float = 0.0

    @property
    def bytes_per_ns(self) -> float:
        return units.megabits_per_second(self.bandwidth_mbits)

    @property
    def ns_per_byte(self) -> float:
        return 1.0 / self.bytes_per_ns


@dataclass
class CabConfig:
    """CAB (communication accelerator board) parameters (§5).

    The CPU is "a SPARC processor running at 16 megahertz" (§5.2); the
    model has no clock-rate parameter — the software costs below and in
    :class:`KernelConfig` are stated in nanoseconds at that rate.
    """

    #: Data memory size — "1 megabyte of RAM" (§5.2).
    data_memory_bytes: int = 1 << 20
    #: Program memory size — 128 KB PROM + 512 KB RAM (§5.2).
    program_memory_bytes: int = 640 << 10
    #: Total data-memory bandwidth — "66 megabytes/second" (§5.2).
    memory_bandwidth_mbytes: float = 66.0
    #: VME bandwidth — "10 megabytes/second" (§5.2).
    vme_bandwidth_mbytes: float = 10.0
    #: Protection page size — "each 1 kilobyte page" (§5.2).
    page_bytes: int = 1024
    #: Hardware protection domains — "currently the CAB supports 32" (§5.2).
    protection_domains: int = 32
    #: CAB input queue (same circuit as the HUB I/O port, §5.2).
    input_queue_bytes: int = 1024
    #: Fixed DMA engine start latency per transfer.
    dma_start_ns: int = 500
    #: Interrupt dispatch overhead.  The SPARC reserves a register window
    #: for traps (§6.2.1), so this is well under a thread switch: ≈ 2.5 µs.
    interrupt_overhead_ns: int = 2_500
    #: Hardware timer arm/cancel cost — "time-outs ... with low overhead"
    #: (§5.1): ≈ 0.5 µs.
    timer_set_ns: int = 500
    #: Software checksum cost, used only when the hardware unit is disabled
    #: (ablation): ~6 cycles/byte at 16 MHz.
    software_checksum_ns_per_byte: int = 375
    #: Whether the hardware checksum unit is present (§5.1).
    hardware_checksum: bool = True

    @property
    def memory_bytes_per_ns(self) -> float:
        return units.megabytes_per_second(self.memory_bandwidth_mbytes)

    @property
    def vme_bytes_per_ns(self) -> float:
        return units.megabytes_per_second(self.vme_bandwidth_mbytes)


@dataclass
class KernelConfig:
    """CAB kernel parameters (§6.1)."""

    #: Thread context switch — "between 10 and 15 microseconds" (§6.1);
    #: almost all of it is SPARC register-window save/restore.
    thread_switch_ns: int = 12_500
    #: Cost of making a blocked thread runnable (queue manipulation).
    wakeup_ns: int = 1_000
    #: Mailbox enqueue/dequeue bookkeeping cost.
    mailbox_op_ns: int = 1_000
    #: Default mailbox capacity in messages.
    mailbox_capacity: int = 64


@dataclass
class DatalinkConfig:
    """Datalink-layer parameters (§6.2.1, §4.2)."""

    #: CPU time to build a command prefix and hand a packet to DMA.
    send_overhead_ns: int = 1_500
    #: CPU time in the receive interrupt handler before the upcall.
    receive_overhead_ns: int = 1_500
    #: Transport upcall budget: the upcall must return before the CAB input
    #: queue overflows (§6.2.1); modelled as queue size at fiber rate.
    #: Exceeding it drops the packet (recovered by reliable transports).
    upcall_budget_ns: int = 80 * 1024
    #: Reply timeout for circuit establishment before recovery kicks in.
    reply_timeout_ns: int = 200_000
    #: Maximum route-establishment attempts before DatalinkError.
    max_route_attempts: int = 8
    #: Backoff base between route attempts (jittered, seeded).
    retry_backoff_ns: int = 20_000


@dataclass
class TransportConfig:
    """Transport-layer parameters (§6.2.2)."""

    #: Transport header bytes carried in each packet.
    header_bytes: int = 16
    #: Maximum payload per packet: HUB input queue minus framing, commands
    #: and transport header (packet switching caps packets at 1 KB, §4.2.3).
    max_payload_bytes: int = 960
    #: Sliding-window size (packets) for the byte-stream protocol.
    window_packets: int = 8
    #: Retransmission timeout for byte-stream and request-response.
    retransmit_timeout_ns: int = 2_000_000
    #: Maximum retransmissions before TransportError.
    max_retransmits: int = 10
    #: Per-packet transport CPU cost on send (header build, window update).
    #: Calibrated: ~55 instructions on a 16 MHz SPARC ≈ 3.5 µs.
    send_packet_cpu_ns: int = 3_500
    #: Per-packet transport CPU cost on receive (header parse, ack).
    receive_packet_cpu_ns: int = 3_500
    #: Extra CPU for reliable protocols (ack generation / window checks).
    reliability_cpu_ns: int = 2_000
    #: Adaptive Jacobson/Karn RTO (SRTT + 4·RTTVAR) for the reliable
    #: protocols.  ``False`` restores the fixed
    #: :attr:`retransmit_timeout_ns` timer everywhere.
    adaptive_rto: bool = True
    #: Clamp for the adaptive RTO (spurious-retransmit guard).
    min_rto_ns: int = 100_000
    #: Clamp for the adaptive RTO with backoff applied.
    max_rto_ns: int = 16_000_000
    #: Backoff jitter as a fraction of the base RTO, drawn from the
    #: deterministic ``rto:<cab>-><peer>`` RNG stream.
    rto_jitter: float = 0.1
    #: How long incomplete reassemblies (datagram and request-response)
    #: are kept.  Generous: a pipelined 1 MB node send crosses VME at
    #: 10 MB/s (~100 ms).
    reassembly_timeout_ns: int = 500_000_000


@dataclass
class ResilienceConfig:
    """Self-healing layer parameters (§4 goal 4: "testing,
    reconfiguration, and recovery from hardware failures").

    Intervals are chosen so a dead inter-HUB link is detected and routed
    around within ~0.5 ms (a few probe periods) while the monitoring
    traffic stays a small fraction of one fiber's bandwidth.
    """

    #: Period of the inter-HUB link probes (ECHO over a specific fiber).
    link_probe_interval_ns: int = 150_000
    #: Reply deadline per link probe before it counts as a failure.
    #: Must clear the worst queueing an honest link sees under load, or
    #: congestion reads as link death.
    link_probe_timeout_ns: int = 150_000
    #: Consecutive probe failures: alive -> suspect / suspect -> dead.
    link_suspect_after: int = 1
    link_dead_after: int = 3
    #: Consecutive probe successes a dead link needs to come back.
    link_recover_after: int = 2
    #: Period of the end-to-end CAB heartbeats (datagrams).
    heartbeat_interval_ns: int = 400_000
    #: Each CAB heartbeats the next ``fanout`` CABs on the sorted ring
    #: (0 = all peers; the detector aggregates every observer).
    heartbeat_fanout: int = 2
    #: Heartbeat suspicion thresholds (alive/suspect/dead/recovering).
    cab_suspect_after: int = 2
    cab_dead_after: int = 4
    cab_recover_after: int = 1
    #: Period of the first-hop ``STATUS_READY`` uplink probes.
    uplink_probe_interval_ns: int = 500_000
    #: Consecutive transport failures that trip a peer's circuit breaker
    #: even without a detector verdict.
    breaker_failure_threshold: int = 5
    #: How long an open breaker waits before a half-open trial.
    breaker_cooldown_ns: int = 2_000_000
    #: Heartbeat message body size (timestamps ride in the header).
    heartbeat_bytes: int = 32


@dataclass
class CollectiveConfig:
    """Collective-operation parameters (``repro.collectives``).

    The HUB-offloaded path combines at controller rate; the software
    paths exist as the portable baseline (``tree``) and as the classic
    hypercube algorithm the iPSC library shipped with (``exchange``,
    power-of-two rank counts only).
    """

    #: Default execution mode: ``hub`` (in-network combining),
    #: ``tree`` (software k-ary tree over datagrams), or ``exchange``
    #: (software dimension exchange; falls back to ``tree`` for
    #: non-power-of-two groups).
    mode: str = "hub"
    #: Arity of the software trees (and of scatter/gather fan-out).
    fanout: int = 4
    #: Deadline for a HUB collective reply before CollectiveError.
    #: Generous: a barrier legitimately waits for its slowest member.
    reply_timeout_ns: int = 50_000_000
    #: Deadline for one software-tree receive before CollectiveError.
    software_timeout_ns: int = 50_000_000


@dataclass
class NodeConfig:
    """Node host (Sun-3/4 class UNIX machine) cost model (§6.2.3).

    All values are calibrated to late-1980s UNIX networking profiles (the
    paper's refs [3,5,11] show software costs dominating wire time).
    """

    #: System-call entry/exit overhead.
    syscall_ns: int = 25_000
    #: Interrupt service overhead (trap, dispatch, return).
    interrupt_ns: int = 30_000
    #: Wakeup-to-run scheduling latency for a blocked process.
    scheduling_latency_ns: int = 20_000
    #: Node memory-to-memory copy bandwidth.
    copy_bandwidth_mbytes: float = 20.0
    #: Shared-memory interface polling interval (§6.2.3, interface 1).
    poll_interval_ns: int = 5_000
    #: Per-message cost to build/consume a message in mapped CAB memory.
    mailbox_command_ns: int = 3_000
    #: In-kernel protocol processing per packet when the node runs the
    #: transport itself (interface 3, "dumb network"; also the LAN
    #: baseline).  Refs [3,5,11]-era TCP/IP path ≈ 350 µs/packet.
    kernel_protocol_ns: int = 350_000

    @property
    def copy_bytes_per_ns(self) -> float:
        return units.megabytes_per_second(self.copy_bandwidth_mbytes)


@dataclass
class LanConfig:
    """Baseline shared-medium LAN (10 Mb/s Ethernet + kernel stack)."""

    bandwidth_mbits: float = 10.0
    #: CSMA/CD slot time (512 bit times at 10 Mb/s).
    slot_time_ns: int = 51_200
    #: Interframe gap (96 bit times).
    interframe_gap_ns: int = 9_600
    #: Maximum frame payload (Ethernet MTU).
    mtu_bytes: int = 1500
    #: Frame overhead (preamble+header+CRC = 26 bytes).
    frame_overhead_bytes: int = 26
    #: Minimum frame size (collision detection window).
    min_frame_bytes: int = 64
    #: Exponential backoff ceiling (2^k slots, k ≤ 10).
    max_backoff_exponent: int = 10
    #: Attempts before the interface reports an error.
    max_attempts: int = 16
    #: Host software cost per packet on each side (kernel stack + socket
    #: layer + copies), per refs [3,5,11].
    host_send_ns: int = 400_000
    host_receive_ns: int = 450_000

    @property
    def bytes_per_ns(self) -> float:
        return units.megabits_per_second(self.bandwidth_mbits)


@dataclass
class NectarConfig:
    """Aggregate configuration for a simulated Nectar installation."""

    hub: HubConfig = field(default_factory=HubConfig)
    fiber: FiberConfig = field(default_factory=FiberConfig)
    cab: CabConfig = field(default_factory=CabConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    datalink: DatalinkConfig = field(default_factory=DatalinkConfig)
    transport: TransportConfig = field(default_factory=TransportConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    collectives: CollectiveConfig = field(default_factory=CollectiveConfig)
    node: NodeConfig = field(default_factory=NodeConfig)
    lan: LanConfig = field(default_factory=LanConfig)
    #: Seed for all stochastic elements (fault injection, backoff jitter).
    seed: int = 1989

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check cross-parameter consistency; raises :class:`ConfigError`."""
        if self.hub.num_ports < 2:
            raise ConfigError("a HUB needs at least 2 ports")
        if self.hub.cycle_ns <= 0:
            raise ConfigError("hub cycle time must be positive")
        if self.fiber.bandwidth_mbits <= 0:
            raise ConfigError("fiber bandwidth must be positive")
        if not 0.0 <= self.fiber.drop_probability <= 1.0:
            raise ConfigError("drop probability must be within [0, 1]")
        if not 0.0 <= self.fiber.corrupt_probability <= 1.0:
            raise ConfigError("corrupt probability must be within [0, 1]")
        # Imported here: the hardware package imports this module.
        from .hardware.frames import FRAMING_BYTES
        max_packet = (self.transport.max_payload_bytes
                      + self.transport.header_bytes
                      + FRAMING_BYTES)
        if max_packet > self.hub.input_queue_bytes:
            raise ConfigError(
                f"max packet {max_packet} B exceeds the HUB input queue "
                f"({self.hub.input_queue_bytes} B); packet switching would "
                f"deadlock (§4.2.3)")
        if self.transport.window_packets < 1:
            raise ConfigError("byte-stream window must be >= 1 packet")
        if self.cab.protection_domains < 1:
            raise ConfigError("need at least one protection domain")
        if self.transport.retransmit_timeout_ns <= 0:
            raise ConfigError("retransmit timeout must be positive")
        if not 0 < self.transport.min_rto_ns <= self.transport.max_rto_ns:
            raise ConfigError(
                f"RTO clamp must satisfy 0 < min <= max, got "
                f"[{self.transport.min_rto_ns}, {self.transport.max_rto_ns}]")
        if not 0.0 <= self.transport.rto_jitter <= 1.0:
            raise ConfigError("RTO jitter fraction must be within [0, 1]")
        if self.transport.reassembly_timeout_ns <= 0:
            raise ConfigError("reassembly timeout must be positive")
        res = self.resilience
        for label, value in (
                ("link probe interval", res.link_probe_interval_ns),
                ("link probe timeout", res.link_probe_timeout_ns),
                ("heartbeat interval", res.heartbeat_interval_ns),
                ("uplink probe interval", res.uplink_probe_interval_ns),
                ("breaker cooldown", res.breaker_cooldown_ns)):
            if value <= 0:
                raise ConfigError(f"resilience {label} must be positive")
        for label, value in (
                ("link_suspect_after", res.link_suspect_after),
                ("link_dead_after", res.link_dead_after),
                ("link_recover_after", res.link_recover_after),
                ("cab_suspect_after", res.cab_suspect_after),
                ("cab_dead_after", res.cab_dead_after),
                ("cab_recover_after", res.cab_recover_after),
                ("breaker_failure_threshold",
                 res.breaker_failure_threshold)):
            if value < 1:
                raise ConfigError(f"resilience {label} must be >= 1")
        if res.link_dead_after < res.link_suspect_after \
                or res.cab_dead_after < res.cab_suspect_after:
            raise ConfigError(
                "resilience dead threshold must be >= suspect threshold")
        if res.heartbeat_fanout < 0:
            raise ConfigError("heartbeat fanout must be >= 0 (0 = all)")
        coll = self.collectives
        if coll.mode not in ("hub", "tree", "exchange"):
            raise ConfigError(
                f"collective mode must be hub/tree/exchange, "
                f"got {coll.mode!r}")
        if coll.fanout < 2:
            raise ConfigError("collective tree fanout must be >= 2")
        if coll.reply_timeout_ns <= 0 or coll.software_timeout_ns <= 0:
            raise ConfigError("collective timeouts must be positive")

    def rng_stream(self, name: str = "") -> random.Random:
        """An independent, deterministic RNG stream derived from the seed.

        Every stochastic element (fault injection on one fiber, backoff
        jitter on one CAB, one traffic source) draws from its own named
        stream, so elements never advance each other's sequences and two
        runs with the same seed are identical event for event.
        """
        return random.Random(f"{self.seed}:{name}")

    def with_overrides(self, **section_overrides) -> "NectarConfig":
        """Copy this config replacing whole sections, e.g.
        ``cfg.with_overrides(fiber=replace(cfg.fiber, drop_probability=0.1))``.
        """
        merged = {
            "hub": self.hub, "fiber": self.fiber, "cab": self.cab,
            "kernel": self.kernel, "datalink": self.datalink,
            "transport": self.transport, "resilience": self.resilience,
            "collectives": self.collectives,
            "node": self.node, "lan": self.lan,
            "seed": self.seed,
        }
        unknown = set(section_overrides) - set(merged)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        merged.update(section_overrides)
        return NectarConfig(**merged)


def default_config() -> NectarConfig:
    """The paper-faithful prototype configuration."""
    return NectarConfig()


def vlsi_config() -> NectarConfig:
    """The §3.2 scale-up projection.

    "When the prototype has demonstrated that the Nectar architecture
    and software works well ..., we plan to re-implement the system in
    custom or semi-custom VLSI.  This will lead to larger systems with
    higher performance and lower cost."  §3.1 adds that "128 × 128
    crossbars are possible with custom VLSI".

    The preset keeps every paper-stated timing (the projection the paper
    makes is about *size*, not speed) but grows the crossbar to 128
    ports, raising a single HUB's aggregate bandwidth to 12.8 Gb/s.
    """
    return NectarConfig(hub=HubConfig(num_ports=128))


__all__ = [
    "CabConfig",
    "CollectiveConfig",
    "DatalinkConfig",
    "FiberConfig",
    "HubConfig",
    "KernelConfig",
    "LanConfig",
    "NectarConfig",
    "NodeConfig",
    "ResilienceConfig",
    "TransportConfig",
    "default_config",
    "replace",
]
