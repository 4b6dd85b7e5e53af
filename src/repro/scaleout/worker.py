"""The worker side of a partitioned run: one partition, its rounds.

A worker process builds one :class:`~repro.scaleout.partition.PartitionSystem`
and runs the conservative-lookahead rounds with its peers, without the
coordinator (:mod:`repro.scaleout.supervisor`) on the path:

1. **Plan.**  Every worker keeps the planner's ``peeks`` and ``pending``
   heaps for *all* partitions, so each one calls
   :func:`~repro.scaleout.planner.plan_round` on the same knowledge and
   gets the same grants; it pops every granted partition's due
   envelopes with :func:`~repro.scaleout.planner.take_due`, injecting
   its own.
2. **Run** its own partition to its grant (an elided worker does not;
   one with no bound runs to the end of its agenda).
3. **Exchange.**  A worker that ran sends its state report ``(peek,
   outbox)``, tagged with the round and the grants it planned, to every
   peer over a pipe of its own, and receives the report of every peer
   that ran; it files every envelope with
   :func:`~repro.scaleout.planner.post`.  A report whose tag differs
   from the receiver's own plan ends the run as "diverged".

The coordinator hears ``ready`` and the result from a worker, and in
between only heartbeats (at most one a second).  ``docs/SCALEOUT.md``
states the protocol.
"""

from __future__ import annotations

import gc
import hashlib
import pickle
import select
import time
import traceback
from typing import Any, Optional

from ..faults.scenario import FaultScenario
from .escl import ScaleoutScenario, spawn_traffic
from .partition import Partitioning, PartitionSystem, lookahead_matrix
from .planner import plan_round, post, take_due

__all__ = ["worker_main"]

#: Milliseconds between heartbeats of a worker (at most one per second).
BEAT_MS = 1000


class _Stop(Exception):
    """Ends a worker with a report other than a traceback."""

    def __init__(self, tag: str, detail: Any) -> None:
        super().__init__(tag, detail)
        self.tag = tag
        self.detail = detail


class _Rounds:
    """One worker's side of the round protocol.

    Mirrors the planner's state for every partition, runs its own
    partition to each grant and exchanges state reports with its peers.
    """

    def __init__(self, control, inbox: list, outbox: list,
                 system: PartitionSystem) -> None:
        self.control = control
        self.inbox = inbox
        self.outbox = outbox
        self.system = system
        self.index = system.index
        self.owners = system.partitioning.owner_map()
        self.distance = lookahead_matrix(system.partitioning, system.cfg,
                                         system.routes)
        self.peeks: list[Optional[int]] = [None] * len(inbox)
        self.pending: list[list[tuple]] = [[] for _ in inbox]
        self.pollers: list[Any] = []
        for reader in inbox:
            poller = None
            if reader is not None:
                poller = select.poll()
                poller.register(reader.fileno(), select.POLLIN)
            self.pollers.append(poller)
        self.rounds = self.advances = self.envelopes = self.inbound = 0
        #: This partition's last grant (``None`` before its first, or
        #: after one with no bound).
        self.grant: Optional[int] = None
        self.plan = hashlib.blake2b(digest_size=16)
        self.compute_s = self.wait_s = self.exchange_s = 0.0

    def progress(self) -> tuple:
        """``(round, last grant, events processed)``, on every message."""
        return self.rounds, self.grant, self.system.sim.events_processed

    def tell(self, tag: str, body: Any = None) -> None:
        self.control.send((tag, self.progress(), body))

    def run(self) -> dict[str, Any]:
        """Plan and run rounds until the planner says done."""
        system, index, pending = self.system, self.index, self.pending
        self.compute_s = self.wait_s = self.exchange_s = 0.0
        cpu_start, run_cpu = time.process_time(), 0.0
        next_beat = time.monotonic() + BEAT_MS / 1000
        while True:
            grants = plan_round(self.peeks, pending, self.distance)
            if grants is None:
                break
            self.rounds += 1
            self.plan.update(repr(grants).encode())
            for part, grant in grants.items():
                if part != index:
                    take_due(pending[part], grant)
            self.advances += len(grants)
            report = None
            if index in grants:
                grant = grants[index]
                due = take_due(pending[index], grant)
                self.inbound += len(due)
                system.inject(due)
                self.grant = grant
                began, cpu = time.perf_counter(), time.process_time()
                # Grants are monotone per worker, so the clamp is
                # normally a no-op; it keeps a violation from surfacing
                # as run()'s in-the-past ValueError mid-run.
                system.run(until=None if grant is None
                           else max(grant, system.now))
                ran = time.process_time()
                self.compute_s += time.perf_counter() - began
                run_cpu += ran - cpu
                report = (system.sim.peek(), system.drain_outbox())
            else:
                ran = time.process_time()
            if time.monotonic() >= next_beat:
                self.tell("beat")
                next_beat = time.monotonic() + BEAT_MS / 1000
            self.exchange(grants, report)
            # (CPU, not wall: blocked on a peer, a worker uses none.)
            self.exchange_s += time.process_time() - ran
        # The clock of the last event, not of the last grant: what the
        # single-process run reads.
        return {"sim_ns": system.sim.last_ns,
                "plan": self.plan.hexdigest(),
                "rounds": self.rounds, "advances": self.advances,
                "envelopes": self.envelopes, "inbound": self.inbound,
                "timing": {"compute_s": self.compute_s,
                           "wait_s": self.wait_s,
                           "exchange_s": self.exchange_s,
                           "ipc_s": time.process_time() - cpu_start
                           - run_cpu}}

    def exchange(self, grants: dict, report: Optional[tuple]) -> None:
        """Send ``report`` (if this partition ran) to every peer and take
        the reports of every peer that ran; then absorb them all.

        Peers are visited in ascending index, receiving first from a
        lower one and sending first to a higher one, so every pair
        meets in one global order and no two sends larger than the
        64 KiB pipe buffer block on each other.
        """
        index = self.index
        received = []
        blob = None
        if report is not None:
            received.append((index, report))
            blob = pickle.dumps((self.rounds, grants) + report,
                                pickle.HIGHEST_PROTOCOL)
        for peer in range(len(self.inbox)):
            if peer == index:
                continue
            if peer > index and blob is not None:
                self._send(peer, blob)
            if peer in grants:
                received.append((peer, self._receive(peer, grants)))
            if peer < index and blob is not None:
                self._send(peer, blob)
        for source, (peek, outbox) in received:
            self.peeks[source] = peek
            self.envelopes += len(outbox)
            for envelope in outbox:
                post(self.pending[self.owners[envelope[3]]], source,
                     envelope)

    def _send(self, peer: int, blob: bytes) -> None:
        try:
            self.outbox[peer].send_bytes(blob)
        except OSError:
            raise _Stop("peer-lost", peer) from None

    def _receive(self, peer: int, grants: dict) -> tuple:
        began = time.perf_counter()
        while not self.pollers[peer].poll(BEAT_MS):
            self.tell("beat", peer)
        self.wait_s += time.perf_counter() - began
        try:
            rounds, planned, peek, outbox = pickle.loads(
                self.inbox[peer].recv_bytes())
        except (EOFError, OSError):
            raise _Stop("peer-lost", peer) from None
        if rounds != self.rounds or planned != grants:
            raise _Stop("diverged",
                        f"partition {peer} reported round {rounds} grants "
                        f"{planned}, partition {self.index} planned round "
                        f"{self.rounds} grants {grants}")
        return peek, outbox


def worker_main(control, inbox: list, outbox: list, every: list,
                scenario: ScaleoutScenario, partitioning: Partitioning,
                index: int, faults: Optional[FaultScenario],
                routes: Optional[frozenset]) -> None:
    """Worker process: build partition ``index``, then run the rounds.

    ``inbox[j]`` reads the pipe from partition ``j`` and ``outbox[j]``
    writes the pipe to it (``None`` at ``index``); every other end in
    ``every`` is closed, so a dead peer reads as EOF.  Tells the
    coordinator, as ``(tag, progress, body)``: ``ready`` once the
    initial reports are exchanged (then waits for ``go``), ``beat``,
    then ``result``; or ``error`` (a traceback), ``peer-lost`` (the
    peer) or ``diverged`` before exiting non-zero.  ``scenario``,
    ``partitioning``, ``faults`` (``None`` for a clean run) and
    ``routes`` (the declared route set, ``None`` under faults) are the
    coordinator's own objects, shared through the fork.
    """
    for end in every:
        if end not in inbox and end not in outbox:
            end.close()
    rounds = None
    try:
        # Everything inherited from the coordinator is immortal here:
        # without this a full collection during the build walks (and
        # copy-on-write faults) the parent's whole heap.
        gc.freeze()
        system = PartitionSystem(partitioning, index, scenario.config(),
                                 routes)
        if faults is not None:
            system.inject_faults(faults)
        traffic = spawn_traffic(scenario, system)
        rounds = _Rounds(control, inbox, outbox, system)
        # The initial reports: round 0, in which every partition "ran".
        rounds.exchange(dict.fromkeys(range(partitioning.num_partitions), 0),
                        (system.sim.peek(), system.drain_outbox()))
        rounds.tell("ready")
        control.recv()
        outcome = rounds.run()
        outcome["fragment"] = traffic.fragment()
        rounds.tell("result", outcome)
    except Exception as exc:
        tag, detail = (exc.tag, exc.detail) if isinstance(exc, _Stop) \
            else ("error", traceback.format_exc())
        try:
            control.send((tag, rounds.progress() if rounds else
                          (0, None, 0), detail))
        except OSError:  # pragma: no cover - coordinator already gone
            pass
        raise SystemExit(1)
