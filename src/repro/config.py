"""Central configuration: every timing and size parameter of the model.

Values the paper states are used verbatim and cite the section.  Values the
paper implies but does not state (per-layer CPU costs on the 16 MHz SPARC,
UNIX overheads on the Sun-3/4 class nodes, LAN baseline software costs) are
calibrated so the stated end-to-end goals land where §2.3 puts them; each
such value carries a comment.

A parameter that some benchmark, experiment or test varies is a field of a
section dataclass gathered in :class:`NectarConfig`; set it with
``replace(cfg, section=replace(cfg.section, field=...))``.  Every other
parameter is fixed by the prototype hardware and is a module constant,
listed under its section's heading; readers import it by name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from .errors import ConfigError
from .sim import units


# -- HUB (§4) ----------------------------------------------------------------

#: Cycles to set up a connection and transfer the first byte — "ten
#: cycles (700 nanoseconds)" (§4, goal 1).  A target, not a cost: no
#: model path reads it (only :attr:`HubConfig.setup_ns`, for the
#: tests); the model's setup is ``PORT_COMMAND_CYCLES + 1 +
#: TRANSFER_CYCLES``, and ``test_hub_cycle_decomposition`` holds the two
#: equal.
SETUP_CYCLES = 10
#: Cycles of latency to move a byte through an established connection —
#: "five cycles (350 nanoseconds)" (§4, goal 1).
TRANSFER_CYCLES = 5
#: Input queue per HUB port, which bounds the packet-switched packet size —
#: "the length of the input queue, and thus the maximum packet size, is
#: 1 kilobyte" (§4.2.3).  The CAB input queue is the same circuit (§5.2).
INPUT_QUEUE_BYTES = 1024
#: Cycles the I/O port spends extracting a command from the incoming
#: byte stream before handing it on.  4 cycles, so that command
#: extraction (4) + controller execution (1) + first-byte transfer (5)
#: reproduces the 10-cycle connection-plus-first-byte figure (§4).
PORT_COMMAND_CYCLES = 4


@dataclass
class HubConfig:
    """HUB crossbar-switch parameters (§4)."""

    #: Controller cycle time — "every 70 nanosecond cycle" (§4, goal 2).
    cycle_ns: int = 70
    #: I/O ports per HUB — 16 in the prototype (§4.1).
    num_ports: int = 16

    @property
    def setup_ns(self) -> int:
        return SETUP_CYCLES * self.cycle_ns

    @property
    def transfer_ns(self) -> int:
        return TRANSFER_CYCLES * self.cycle_ns


# -- Fiber (§3.2) ------------------------------------------------------------

#: Effective bandwidth per fiber line, TAXI-limited — "100
#: megabits/second" (§3.2).
FIBER_MBITS = 100.0
FIBER_BYTES_PER_NS = units.megabits_per_second(FIBER_MBITS)
FIBER_NS_PER_BYTE = 1.0 / FIBER_BYTES_PER_NS


@dataclass
class FiberConfig:
    """Fiber-optic link parameters (§3.2)."""

    #: One-way propagation delay.  The paper's latency goals exclude fiber
    #: transmission delays (§2.3); 10 m of fiber ≈ 50 ns.
    propagation_ns: int = 50
    #: Packet drop probability (fault injection; 0 in the healthy system).
    drop_probability: float = 0.0
    #: Payload corruption probability (fault injection).
    corrupt_probability: float = 0.0

    @property
    def ns_per_byte(self) -> float:
        return FIBER_NS_PER_BYTE


# -- CAB (§5) ----------------------------------------------------------------
# The CPU is "a SPARC processor running at 16 megahertz" (§5.2); the model
# has no clock-rate parameter — the software costs here and under the
# kernel heading are stated in nanoseconds at that rate.

#: Data memory size — "1 megabyte of RAM" (§5.2).
DATA_MEMORY_BYTES = 1 << 20
#: Program memory size — 128 KB PROM + 512 KB RAM (§5.2).
PROGRAM_MEMORY_BYTES = 640 << 10
#: Total data-memory bandwidth — "66 megabytes/second" (§5.2).
MEMORY_BANDWIDTH_MBYTES = 66.0
MEMORY_BYTES_PER_NS = units.megabytes_per_second(MEMORY_BANDWIDTH_MBYTES)
#: VME bandwidth — "10 megabytes/second" (§5.2).
VME_BANDWIDTH_MBYTES = 10.0
VME_BYTES_PER_NS = units.megabytes_per_second(VME_BANDWIDTH_MBYTES)
#: Protection page size — "each 1 kilobyte page" (§5.2).
PAGE_BYTES = 1024
#: Hardware protection domains — "currently the CAB supports 32" (§5.2).
PROTECTION_DOMAINS = 32
#: Fixed DMA engine start latency per transfer.
DMA_START_NS = 500
#: Interrupt dispatch overhead.  The SPARC reserves a register window
#: for traps (§6.2.1), so this is well under a thread switch: ≈ 2.5 µs.
INTERRUPT_OVERHEAD_NS = 2_500
#: Software checksum cost, used only when the hardware unit is disabled
#: (ablation): ~6 cycles/byte at 16 MHz.
SOFTWARE_CHECKSUM_NS_PER_BYTE = 375


@dataclass
class CabConfig:
    """CAB (communication accelerator board) parameters (§5)."""

    #: Whether the hardware checksum unit is present (§5.1).
    hardware_checksum: bool = True


# -- CAB kernel (§6.1) -------------------------------------------------------

#: Thread context switch — "between 10 and 15 microseconds" (§6.1);
#: almost all of it is SPARC register-window save/restore.
THREAD_SWITCH_NS = 12_500
#: Cost of making a blocked thread runnable (queue manipulation).
WAKEUP_NS = 1_000
#: Mailbox enqueue/dequeue bookkeeping cost.
MAILBOX_OP_NS = 1_000
#: Default mailbox capacity in messages.
MAILBOX_CAPACITY = 64


# -- Datalink (§6.2.1, §4.2) -------------------------------------------------

#: CPU time to build a command prefix and hand a packet to DMA.
SEND_OVERHEAD_NS = 1_500
#: CPU time in the receive interrupt handler before the upcall.
RECEIVE_OVERHEAD_NS = 1_500
#: Reply timeout for circuit establishment before recovery kicks in.
REPLY_TIMEOUT_NS = 200_000
#: Maximum route-establishment attempts before DatalinkError.
MAX_ROUTE_ATTEMPTS = 8
#: Backoff base between route attempts (jittered, seeded).
RETRY_BACKOFF_NS = 20_000


@dataclass
class DatalinkConfig:
    """Datalink-layer parameters (§6.2.1, §4.2)."""

    #: Transport upcall budget: the upcall must return before the CAB input
    #: queue overflows (§6.2.1); modelled as queue size at fiber rate.
    #: Exceeding it drops the packet (recovered by reliable transports).
    upcall_budget_ns: int = 80 * 1024


# -- Transport (§6.2.2) ------------------------------------------------------

#: Transport header bytes carried in each packet.
TRANSPORT_HEADER_BYTES = 16
#: Per-packet transport CPU cost on send (header build, window update).
#: Calibrated: ~55 instructions on a 16 MHz SPARC ≈ 3.5 µs.
SEND_PACKET_CPU_NS = 3_500
#: Per-packet transport CPU cost on receive (header parse, ack).
RECEIVE_PACKET_CPU_NS = 3_500
#: Extra CPU for reliable protocols (ack generation / window checks).
RELIABILITY_CPU_NS = 2_000


@dataclass
class TransportConfig:
    """Transport-layer parameters (§6.2.2)."""

    #: Maximum payload per packet: HUB input queue minus framing, commands
    #: and transport header (packet switching caps packets at 1 KB, §4.2.3).
    max_payload_bytes: int = 960
    #: Sliding-window size (packets) for the byte-stream protocol.
    window_packets: int = 8
    #: Retransmission timeout for byte-stream and request-response.
    retransmit_timeout_ns: int = 2_000_000
    #: Maximum retransmissions before TransportError.
    max_retransmits: int = 10
    #: Clamp for the Jacobson/Karn RTO (spurious-retransmit guard).  A
    #: fixed timer is the zero-width clamp: ``min_rto_ns = max_rto_ns =
    #: retransmit_timeout_ns`` with ``rto_jitter = 0``.
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


# -- Resilience (§4 goal 4) --------------------------------------------------
# "Testing, reconfiguration, and recovery from hardware failures".
# Intervals are chosen so a dead inter-HUB link is detected and routed
# around within ~0.5 ms (a few probe periods) while the monitoring traffic
# stays a small fraction of one fiber's bandwidth.

#: Period of the inter-HUB link probes (ECHO over a specific fiber).
LINK_PROBE_INTERVAL_NS = 150_000
#: Reply deadline per link probe before it counts as a failure.
#: Must clear the worst queueing an honest link sees under load, or
#: congestion reads as link death.
LINK_PROBE_TIMEOUT_NS = 150_000
#: Consecutive probe failures: alive -> suspect / suspect -> dead.
LINK_SUSPECT_AFTER = 1
LINK_DEAD_AFTER = 3
#: Consecutive probe successes a dead link needs to come back.
LINK_RECOVER_AFTER = 2
#: Period of the end-to-end CAB heartbeats (datagrams).
HEARTBEAT_INTERVAL_NS = 400_000
#: Each CAB heartbeats the next ``HEARTBEAT_FANOUT`` CABs on the sorted
#: ring (the detector aggregates every observer).
HEARTBEAT_FANOUT = 2
#: Heartbeat suspicion thresholds (alive/suspect/dead/recovering).
CAB_SUSPECT_AFTER = 2
CAB_DEAD_AFTER = 4
CAB_RECOVER_AFTER = 1
#: Period of the first-hop ``STATUS_READY`` uplink probes.
UPLINK_PROBE_INTERVAL_NS = 500_000
#: Heartbeat message body size (timestamps ride in the header).
HEARTBEAT_BYTES = 32


@dataclass
class ResilienceConfig:
    """Self-healing layer parameters that tests vary (the rest are the
    constants above)."""

    #: Consecutive transport failures that trip a peer's circuit breaker
    #: even without a detector verdict.
    breaker_failure_threshold: int = 5
    #: How long an open breaker waits before a half-open trial.
    breaker_cooldown_ns: int = 2_000_000


# -- Collectives (``repro.collectives``) -------------------------------------

#: Arity of the software trees (and of scatter/gather fan-out).
COLLECTIVE_FANOUT = 4


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
    #: Deadline for a HUB collective reply before CollectiveError.
    #: Generous: a barrier legitimately waits for its slowest member.
    reply_timeout_ns: int = 50_000_000
    #: Deadline for one software-tree receive before CollectiveError.
    software_timeout_ns: int = 50_000_000


# -- Node hosts (§6.2.3) -----------------------------------------------------
# Sun-3/4 class UNIX machines, calibrated to late-1980s UNIX networking
# profiles (the paper's refs [3,5,11] show software costs dominating wire
# time).

#: System-call entry/exit overhead.
SYSCALL_NS = 25_000
#: Interrupt service overhead (trap, dispatch, return).
NODE_INTERRUPT_NS = 30_000
#: Wakeup-to-run scheduling latency for a blocked process.
SCHEDULING_LATENCY_NS = 20_000
#: Node memory-to-memory copy bandwidth.
COPY_BANDWIDTH_MBYTES = 20.0
COPY_BYTES_PER_NS = units.megabytes_per_second(COPY_BANDWIDTH_MBYTES)
#: Shared-memory interface polling interval (§6.2.3, interface 1).
POLL_INTERVAL_NS = 5_000
#: Per-message cost to build/consume a message in mapped CAB memory.
MAILBOX_COMMAND_NS = 3_000
#: In-kernel protocol processing per packet when the node runs the
#: transport itself (interface 3, "dumb network"; also the LAN
#: baseline).  Refs [3,5,11]-era TCP/IP path ≈ 350 µs/packet.
KERNEL_PROTOCOL_NS = 350_000


# -- Baseline shared-medium LAN (10 Mb/s Ethernet + kernel stack) ------------

LAN_MBITS = 10.0
LAN_BYTES_PER_NS = units.megabits_per_second(LAN_MBITS)
#: CSMA/CD slot time (512 bit times at 10 Mb/s).
SLOT_TIME_NS = 51_200
#: Interframe gap (96 bit times).
INTERFRAME_GAP_NS = 9_600
#: Maximum frame payload (Ethernet MTU).
LAN_MTU_BYTES = 1500
#: Frame overhead (preamble+header+CRC = 26 bytes).
FRAME_OVERHEAD_BYTES = 26
#: Minimum frame size (collision detection window).
MIN_FRAME_BYTES = 64
#: Exponential backoff ceiling (2^k slots, k ≤ 10).
MAX_BACKOFF_EXPONENT = 10
#: Attempts before the interface reports an error.
LAN_MAX_ATTEMPTS = 16
#: Host software cost per packet on each side (kernel stack + socket
#: layer + copies), per refs [3,5,11].
LAN_HOST_SEND_NS = 400_000
LAN_HOST_RECEIVE_NS = 450_000


@dataclass
class NectarConfig:
    """Aggregate configuration for a simulated Nectar installation."""

    hub: HubConfig = field(default_factory=HubConfig)
    fiber: FiberConfig = field(default_factory=FiberConfig)
    cab: CabConfig = field(default_factory=CabConfig)
    datalink: DatalinkConfig = field(default_factory=DatalinkConfig)
    transport: TransportConfig = field(default_factory=TransportConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    collectives: CollectiveConfig = field(default_factory=CollectiveConfig)
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
        if not 0.0 <= self.fiber.drop_probability <= 1.0:
            raise ConfigError("drop probability must be within [0, 1]")
        if not 0.0 <= self.fiber.corrupt_probability <= 1.0:
            raise ConfigError("corrupt probability must be within [0, 1]")
        # Imported here: the hardware package imports this module.
        from .hardware.frames import FRAMING_BYTES
        max_packet = (self.transport.max_payload_bytes
                      + TRANSPORT_HEADER_BYTES + FRAMING_BYTES)
        if max_packet > INPUT_QUEUE_BYTES:
            raise ConfigError(
                f"max packet {max_packet} B exceeds the HUB input queue "
                f"({INPUT_QUEUE_BYTES} B); packet switching would "
                f"deadlock (§4.2.3)")
        if self.transport.window_packets < 1:
            raise ConfigError("byte-stream window must be >= 1 packet")
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
        if self.resilience.breaker_cooldown_ns <= 0:
            raise ConfigError("resilience breaker cooldown must be positive")
        if self.resilience.breaker_failure_threshold < 1:
            raise ConfigError(
                "resilience breaker_failure_threshold must be >= 1")
        coll = self.collectives
        if coll.mode not in ("hub", "tree", "exchange"):
            raise ConfigError(
                f"collective mode must be hub/tree/exchange, "
                f"got {coll.mode!r}")
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
    "NectarConfig",
    "ResilienceConfig",
    "TransportConfig",
    "replace",
]
