"""E-SCL scenarios: deterministic traffic for partitioned scale-out runs.

Each scenario fixes a large regular fabric (from
:mod:`repro.topology.fabrics`), a seeded configuration, and a shift
permutation workload: CAB ``i`` sends ``messages_per_cab`` datagrams to
CAB ``(i + n/2) mod n``.  Whether that traffic crosses partition
boundaries depends on the cut: on a torus the partitioner picks a slab
that carries the flows inside it, while on a hypercube or fat tree
(cut in construction order) every flow crosses.  :func:`scenarios`
names the built-in scenarios; a fabric is built on its first lookup.

Determinism is the load-bearing property: the same scenario must produce
a bit-identical fingerprint whether it runs in one process or sharded
across N workers.  Two rules make that hold:

* Everything a fingerprint includes is **order-insensitive within a
  tick**.  A partitioned run merges per-worker event heaps, so two
  events at the same timestamp in different partitions may execute in
  either order; totals, per-CAB content hashes over *sorted* per-message
  digests, and per-hub counter totals are unaffected, while a raw event
  interleaving would not be.
* Everything is **locally computable**.  Each worker produces a fragment
  covering only its own CABs and hubs; fragments merge by dict union
  (key sets are disjoint by construction) and the merged fingerprint
  hashes identically to the single-process one.

Per-sender message sizes vary (``message_bytes + (13 i mod 29)``) and
senders start at staggered times, so no two cross-partition packets are
byte-for-byte symmetric — ties that *would* be reorder-sensitive are
engineered out of the workload rather than papered over.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import defaultdict
from collections.abc import MutableMapping
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Optional

from ..config import NectarConfig
from ..topology.fabrics import (FabricSpec, fat_tree_fabric,
                                hypercube_fabric, torus_fabric)

__all__ = ["SEED", "ScaleoutResult", "ScaleoutScenario", "Traffic",
           "fingerprint_digest", "merge_fragments", "scenarios",
           "spawn_traffic"]

SEED = 1989

#: Mailbox every receiver listens on.
_MAILBOX = "escl"


@dataclass(frozen=True)
class ScaleoutScenario:
    """A named fabric + seeded workload, shared by every run shape."""

    name: str
    description: str
    fabric: FabricSpec
    messages_per_cab: int = 4
    message_bytes: int = 512
    #: Inter-HUB fiber propagation (simulated ns).  Scale-out scenarios
    #: model a longer machine-room fiber plant than the default config;
    #: this is also the conservative lookahead, so it sets how much
    #: simulated time each synchronization round covers.
    propagation_ns: int = 800
    mode: str = "packet"

    def config(self) -> NectarConfig:
        """The seeded config every process building this scenario uses."""
        cfg = NectarConfig(seed=SEED)
        return replace(
            cfg, fiber=replace(cfg.fiber, propagation_ns=self.propagation_ns))

    @property
    def num_cabs(self) -> int:
        return len(self.fabric.cabs)

    def partner(self, index: int) -> int:
        """Destination CAB index for sender ``index`` (half rotation)."""
        count = self.num_cabs
        return (index + count // 2) % count

    def sender_bytes(self, index: int) -> int:
        """Per-message size for sender ``index`` (breaks tie symmetry)."""
        return self.message_bytes + (index * 13) % 29

    def flows(self) -> list[tuple[str, str]]:
        """Every ``(sender, receiver)`` CAB pair of the workload."""
        names = self.fabric.cab_names
        return [(name, names[self.partner(index)])
                for index, name in enumerate(names)]

    def goodput_mbps(self, fingerprint: dict[str, Any]) -> float:
        """Delivered payload bits per simulated time, in Mbit/s."""
        names = self.fabric.cab_names
        delivered = fingerprint.get("delivered", {})
        delivered_bits = 8 * sum(
            delivered.get(name, 0) * self.sender_bytes(
                (index - len(names) // 2) % len(names))
            for index, name in enumerate(names))
        horizon = max(fingerprint.get("done_ns", {}).values(), default=0)
        return delivered_bits / horizon * 1000 if horizon else 0.0


class Traffic:
    """The spawned workload's collection surface for one process.

    After the simulation has drained, :meth:`fragment` returns this
    process's share of the fingerprint — covering exactly the CABs and
    hubs the hosting system materialized.
    """

    def __init__(self, scenario: ScaleoutScenario, system: Any) -> None:
        self.scenario = scenario
        self.system = system
        self.received: dict[str, list[str]] = defaultdict(list)
        self.done_ns: dict[str, int] = {}
        self.sent: dict[str, int] = {}

    def fragment(self) -> dict[str, Any]:
        """This process's locally-observed slice of the fingerprint."""
        content = {
            cab: hashlib.sha256(
                "\n".join(sorted(digests)).encode()).hexdigest()
            for cab, digests in self.received.items()
        }
        return {
            "delivered": {cab: len(d) for cab, d in self.received.items()},
            "content": content,
            "done_ns": dict(self.done_ns),
            "sent": dict(self.sent),
            "hub_counters": {
                name: dict(sorted(hub.counters.items()))
                for name, hub in self.system.hubs.items()
            },
        }


def _message_digest(src: str, data: bytes) -> str:
    hasher = hashlib.sha256(f"{src}|{len(data)}|".encode())
    hasher.update(data)
    return hasher.hexdigest()


def _sender(scenario: ScaleoutScenario, stack: Any, index: int,
            traffic: Traffic):
    names = scenario.fabric.cab_names
    dst = names[scenario.partner(index)]
    size = scenario.sender_bytes(index)
    rng = random.Random((SEED << 5) ^ index)
    # Staggered starts: no two senders commit their first packet on the
    # same tick, which keeps cross-partition batches free of symmetric
    # same-timestamp pairs.
    yield from stack.kernel.sleep(1 + (index * 911) % 4096)
    for _ in range(scenario.messages_per_cab):
        body = rng.randbytes(size)
        yield from stack.transport.datagram.send(
            dst, _MAILBOX, data=body, mode=scenario.mode)
        traffic.sent[stack.name] = traffic.sent.get(stack.name, 0) + 1


def _receiver(scenario: ScaleoutScenario, stack: Any, traffic: Traffic):
    mailbox = stack.create_mailbox(
        _MAILBOX, capacity=scenario.messages_per_cab + 8)
    for _ in range(scenario.messages_per_cab):
        message = yield from stack.kernel.wait(mailbox.get())
        traffic.received[stack.name].append(
            _message_digest(message.src, message.data))
    traffic.done_ns[stack.name] = stack.sim.now


def spawn_traffic(scenario: ScaleoutScenario, system: Any) -> Traffic:
    """Start the workload on every CAB ``system`` materializes.

    Works unchanged for a whole :class:`~repro.system.NectarSystem` and
    a :class:`~repro.scaleout.partition.PartitionSystem`: each process
    spawns senders and receivers only for the CAB stacks it owns, and
    the shift permutation guarantees every sender has exactly one remote
    or local partner expecting its messages.
    """
    names = scenario.fabric.cab_names
    index_of = {name: i for i, name in enumerate(names)}
    traffic = Traffic(scenario, system)
    # Construction order (the fabric's), not dict order, so partitioned
    # and single-process runs spawn threads in the same relative order.
    local = [name for name in names if name in system.cabs]
    for name in local:
        stack = system.cabs[name]
        stack.spawn(_receiver(scenario, stack, traffic),
                    name=f"{name}-escl-sink")
    for name in local:
        stack = system.cabs[name]
        stack.spawn(_sender(scenario, stack, index_of[name], traffic),
                    name=f"{name}-escl-src")
    return traffic


def merge_fragments(fragments: list[dict[str, Any]]) -> dict[str, Any]:
    """Union per-process fragments into the global fingerprint.

    Key sets are disjoint (each CAB and hub lives in exactly one
    partition), so a plain merge is exact; keys are sorted by the JSON
    canonicalisation in :func:`fingerprint_digest`.
    """
    merged: dict[str, dict] = {"delivered": {}, "content": {},
                               "done_ns": {}, "sent": {},
                               "hub_counters": {}}
    for fragment in fragments:
        for section, values in fragment.items():
            overlap = merged[section].keys() & values.keys()
            if overlap:
                raise ValueError(
                    f"fragment overlap in {section!r}: {sorted(overlap)}")
            merged[section].update(values)
    return merged


def fingerprint_digest(scenario_name: str,
                       fingerprint: dict[str, Any]) -> str:
    """The bit-identity contract: SHA-256 over the canonical JSON."""
    payload = json.dumps({"scenario": scenario_name,
                          "fingerprint": fingerprint}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class ScaleoutResult:
    """One run's outcome: determinism digest plus throughput numbers."""

    scenario: str
    partitions: int
    events: int
    sim_ns: int
    wall_s: float
    rounds: int
    envelopes: int
    fingerprint: dict[str, Any] = field(default_factory=dict)
    #: One-time startup cost — worker fork + fabric build (partitioned)
    #: or fabric build + traffic spawn (single-process).  Kept out of
    #: ``wall_s`` so ``events_per_sec`` measures steady-state work.
    setup_s: float = 0.0
    #: Grants actually run (idle workers are elided per round, so this
    #: can be well below ``rounds * partitions``).
    advances: int = 0
    #: Per-partition ``{"compute_s": [...], "wait_s": [...],
    #: "exchange_s": [...], "ipc_s": [...]}`` round-timing breakdown,
    #: measured by each worker (empty for single-process runs).
    timing: dict[str, list[float]] = field(default_factory=dict)
    #: Coordinator CPU seconds over ``wall_s`` (0 single-process): it
    #: only waits, so near zero; with the workers' ``compute_s`` and
    #: ``ipc_s`` it is the run's CPU.
    coordinator_cpu_s: float = 0.0
    #: Per-partition post-mortem records (last round and window, the
    #: failure if any); empty for single-process runs.
    forensics: list[dict[str, Any]] = field(default_factory=list)
    #: Delivered payload bits per simulated time, in Mbit/s
    #: (:meth:`ScaleoutScenario.goodput_mbps` of the fingerprint).
    goodput_mbps: float = 0.0
    # Not a field, always 0: its only reader is the frozen
    # benchmarks/e2e/workloads.py, and the next change to that
    # benchmark deletes both.
    restarts = 0

    @property
    def digest(self) -> str:
        """Bit-identity contract: equal across partition counts."""
        return fingerprint_digest(self.scenario, self.fingerprint)

    def mismatch(self, reference: "ScaleoutResult",
                 faults=None) -> Optional[str]:
        """The parity rule: how this run departs from ``reference``.

        ``None`` when the digests are equal and — unless ``faults`` (a
        :class:`~repro.faults.FaultScenario`) carries events — so are
        the event counts and the clocks of the last event.  Under faults
        a driver process spawns once per partition holding a matched
        target (vs once in the single-process run), so raw event totals
        and their last instants legitimately differ and only the digest
        is compared.
        """
        against = "single-process" if reference.partitions == 1 \
            else f"{reference.partitions}-partition"
        if self.digest != reference.digest:
            return (f"digest {self.digest} differs from {against} "
                    f"{reference.digest}")
        if faults is not None and faults.events:
            return None
        if self.events != reference.events:
            return f"{self.events} events, {against} {reference.events}"
        if self.sim_ns != reference.sim_ns:
            return (f"last event at {self.sim_ns} ns, {against} "
                    f"{reference.sim_ns} ns")
        return None

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def summary(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "partitions": self.partitions,
            "events": self.events,
            "sim_ns": self.sim_ns,
            "wall_s": round(self.wall_s, 6),
            "setup_s": round(self.setup_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "goodput_mbps": round(self.goodput_mbps, 3),
            "rounds": self.rounds,
            "advances": self.advances,
            "envelopes": self.envelopes,
            "digest": self.digest,
        }


#: The built-in scenarios: name -> (description, fabric builder, its
#: argument, other :class:`ScaleoutScenario` fields).
_BUILT_IN: dict[str, tuple] = {
    "escl-torus-16": ("2x2x2x2 torus, 16 CABs (test scale)",
                      torus_fabric, (2, 2, 2, 2), {}),
    "escl-torus-16-circuit": ("2x2x2x2 torus, circuit-switched",
                              torus_fabric, (2, 2, 2, 2),
                              {"message_bytes": 2048, "mode": "circuit"}),
    "escl-torus-64": ("4x4x2x2 torus, 64 CABs (QCDSP-style)",
                      torus_fabric, (4, 4, 2, 2), {}),
    "escl-hypercube-64": ("6-cube, 64 CABs (iPSC-style)",
                          hypercube_fabric, 6, {}),
    "escl-fattree-4": ("4-ary fat tree, 16 CABs, 20 HUBs",
                       fat_tree_fabric, 4, {}),
    "escl-torus-256": ("4x4x4x4 torus, 256 CABs",
                       torus_fabric, (4, 4, 4, 4), {"messages_per_cab": 2}),
    "escl-torus-1024": ("8x8x4x4 torus, 1024 CABs",
                        torus_fabric, (8, 8, 4, 4), {"messages_per_cab": 1}),
}


class _Catalogue(MutableMapping):
    """Name -> :class:`ScaleoutScenario`, building a built-in scenario's
    fabric on its first lookup; membership and the names build nothing."""

    def __init__(self) -> None:
        #: A built scenario, or a :data:`_BUILT_IN` recipe not yet built.
        self._entries: dict[str, Any] = dict(_BUILT_IN)

    def __getitem__(self, name: str) -> ScaleoutScenario:
        entry = self._entries[name]
        if not isinstance(entry, ScaleoutScenario):
            description, builder, shape, fields = entry
            entry = self._entries[name] = ScaleoutScenario(
                name, description, builder(shape), **fields)
        return entry

    def __setitem__(self, name: str, scenario: ScaleoutScenario) -> None:
        self._entries[name] = scenario

    def __delitem__(self, name: str) -> None:
        del self._entries[name]

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


_CATALOGUE = _Catalogue()


def scenarios() -> MutableMapping[str, ScaleoutScenario]:
    """The E-SCL scenarios by name (a fabric is built on first lookup)."""
    return _CATALOGUE
