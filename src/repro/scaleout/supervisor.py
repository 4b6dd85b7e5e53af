"""The crash-tolerant scale-out coordinator: supervised workers.

The :class:`Supervisor` drives one worker process per partition through
barrier rounds over plain :mod:`multiprocessing` pipes and treats worker
death as a recoverable event:

* **One wait.**  Worker pipes *and* process sentinels are watched
  together by one :mod:`selectors` object the supervisor owns
  (registered at spawn, unregistered at reap; each wake absorbs every
  ready reply), with a per-worker heartbeat deadline — a crash is
  detected the moment the kernel reaps the child (sentinel/EOF, with
  the exit code recorded), and a hang is detected when the deadline
  lapses, so the two failure modes are distinguished in the forensics
  instead of both surfacing as an anonymous ``TimeoutError`` minutes
  later.  ``_collect`` is the only place the coordinator blocks.

* **Window-log replay.**  A partitioned worker is a deterministic pure
  function of ``(scenario, partition index, the sequence of coordinator
  messages)``: same seed, same envelope batches, same state — that is
  the bit-identity contract ``ScaleoutResult.mismatch`` checks.  The
  supervisor therefore keeps, per partition, the full log of messages
  sent since worker start.  When a worker dies, a fresh process is
  spawned for the same partition and recovery is from then on a *state
  of that worker*, not a second loop: two per-incarnation cursors say
  how much of the log it has been sent and how many answers it has
  given, and each answer absorbed by the ordinary wait pumps the next
  log entry to it in lock-step.  Answers to already-acknowledged
  positions are deterministic duplicates (their envelopes were already
  routed), so their outboxes are dropped — but each must match the
  witness ``(peek, events processed, outbox length)`` recorded when the
  position was first absorbed, or the run stops with "replay
  diverged".  The at-most-one unacknowledged answer is absorbed exactly
  as the dead incarnation's would have been.  A death or hang *while
  catching up* is a failure like any other.  Restarts are bounded
  (``max_restarts`` per partition) and immediate: a respawn forks a
  fresh deterministic worker and waits on nothing external.  Worker
  state lives in Python generator frames, which cannot pickle, so there
  is no checkpoint to restart from and the log is never truncated.

* **Graceful degradation.**  When a partition exhausts its restart
  budget the supervisor reaps every worker (terminate, then SIGKILL,
  then fail loudly if a process leaks) and raises a structured
  :class:`~repro.errors.ScaleoutError` carrying per-partition forensics:
  last window reached, events processed, restart count, exit codes, and
  the full failure history.

* **Partition-aware faults.**  A :class:`~repro.faults.FaultScenario`
  can ride along: its in-simulation events are handed to *every* worker
  verbatim (each applies the slice whose targets it materialized
  locally, via the injector's non-strict mode), so a faulted
  partitioned run stays digest-identical to the faulted single-process
  run; its process-level ``kill_worker`` events are applied by the
  supervisor itself, SIGKILLing live workers mid-run to exercise the
  recovery path end-to-end (``scaleout --chaos``).

The window arithmetic — grants bounded by per-boundary lookahead,
idle-worker elision — is not here: each round asks
:func:`repro.scaleout.planner.plan_round` what to grant, and this module
only moves the messages.  ``docs/SCALEOUT.md`` states the protocol
("Grants") and the recovery argument ("Fault tolerance").
"""

from __future__ import annotations

import gc
import os
import selectors
import signal
import time
import traceback
import multiprocessing as mp
from fnmatch import fnmatchcase
from typing import Any, Optional

from ..errors import ScaleoutError
from ..faults.campaigns import build_campaign
from ..faults.scenario import FaultEvent, FaultScenario
from .escl import (ScaleoutResult, ScaleoutScenario, merge_fragments,
                   scenarios, spawn_traffic)
from .partition import PartitionSystem, lookahead_matrix, partition_fabric
from .planner import plan_round, post, take_due

__all__ = ["Supervisor", "escl_campaign"]

#: Seconds a worker may take over one answer before it counts as hung.
HANG_TIMEOUT_S = 600.0
#: Seconds granted to each escalation step when reaping a worker.
_REAP_STEP_S = 5.0
#: The round-timing buckets every worker accumulates (see ``_Worker``),
#: with what each ``scaleout.p<i>.<bucket>`` gauge says it measures.
_PHASES = {
    "compute_s": "worker-reported time inside run()",
    "wait_s": "coordinator time blocked past the worker's reported compute",
    "exchange_s": "coordinator CPU time inside pipe send/recv",
    "ipc_s": "worker CPU time outside run(): recv, decode + inject, send",
}

#: E-SCL runs finish within a few hundred microseconds of simulated
#: time (vs the default workload's milliseconds), so campaigns need
#: windows placed inside that span to fire at all.
_ESCL_CAMPAIGN_DEFAULTS: dict[str, dict[str, int]] = {
    "drop-burst": {"start_ns": 5_000, "horizon_ns": 150_000,
                   "duration_ns": 30_000},
    "corrupt-burst": {"start_ns": 5_000, "horizon_ns": 150_000,
                      "duration_ns": 30_000},
    "reply-storm": {"start_ns": 5_000, "horizon_ns": 150_000,
                    "duration_ns": 30_000},
    "link-flap": {"start_ns": 5_000, "horizon_ns": 150_000,
                  "duration_ns": 30_000},
    "worker-kill": {"start_ns": 10_000, "horizon_ns": 200_000},
}


def escl_campaign(name: str, cfg, **overrides) -> FaultScenario:
    """Build a named campaign with windows sized for E-SCL runs."""
    params: dict[str, Any] = dict(_ESCL_CAMPAIGN_DEFAULTS.get(name, {}))
    params.update(overrides)
    return build_campaign(name, cfg, **params)


def _worker_main(conn, scenario_name: str, num_partitions: int,
                 index: int, faults_spec: Optional[dict] = None) -> None:
    """Worker process: one partition, advanced in coordinator windows.

    Replies in lock-step to coordinator commands:

    * ``("advance", window, envelopes)`` → inject, run to the window,
      answer ``("state", peek, outbox, events_processed, compute_s)``
      where ``compute_s`` is the wall time this advance spent inside
      ``run`` — the worker's share of the round-timing breakdown.
    * ``("finish",)`` → answer ``("result", fragment, events_processed,
      now, ipc_s)`` and exit; ``ipc_s`` is the CPU time the loop spent
      *outside* ``run``: receiving, decoding + injecting, sending.

    Any exception is reported as ``("error", traceback_text)`` before
    the worker exits non-zero, so the coordinator sees the worker-side
    stack instead of a silent death.
    """
    try:
        # Everything inherited from the coordinator is immortal here:
        # without this a full collection during the build walks (and
        # copy-on-write faults) the parent's whole heap, and whether one
        # happens depends on the allocation counts the fork inherited.
        gc.freeze()
        scenario = scenarios()[scenario_name]
        partitioning = partition_fabric(scenario.fabric, num_partitions)
        system = PartitionSystem(partitioning, index, scenario.config())
        if faults_spec is not None:
            system.attach_faults(FaultScenario.from_dict(faults_spec))
        traffic = spawn_traffic(scenario, system)
        ipc_s, cpu = 0.0, time.process_time()
        conn.send(("state", system.peek(), system.drain_outbox(),
                   system.sim.events_processed, 0.0))
        while True:
            message = conn.recv()
            if message[0] == "advance":
                _tag, window, envelopes = message
                system.inject(envelopes)
                ipc_s += time.process_time() - cpu
                began = time.perf_counter()
                # Grants are monotone per worker (horizons only ever
                # move forward), so the clamp is normally a no-op; it
                # pins the invariant instead of letting a violation
                # surface as run()'s in-the-past ValueError mid-run.
                system.run(until=max(window, system.now))
                compute = time.perf_counter() - began
                cpu = time.process_time()
                conn.send(("state", system.peek(), system.drain_outbox(),
                           system.sim.events_processed, compute))
            elif message[0] == "finish":
                conn.send(("result", traffic.fragment(),
                           system.sim.events_processed, system.now,
                           ipc_s + time.process_time() - cpu))
                conn.close()
                return
            else:  # pragma: no cover - protocol misuse
                raise RuntimeError(
                    f"unknown coordinator message {message[0]!r}")
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - coordinator already gone
            pass
        raise SystemExit(1)


class _Worker:
    """One partition's process handle plus its replay bookkeeping."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[mp.process.BaseProcess] = None
        self.conn = None
        #: What the supervisor's selector holds for this incarnation:
        #: ``(conn, process sentinel)``, or ``()`` once unregistered.
        self.watched: tuple = ()
        #: Round-timing breakdown, accumulated across the run:
        #: worker-reported seconds inside run(), coordinator-side
        #: seconds blocked on this worker past its reported compute,
        #: coordinator *CPU* seconds inside its pipe send/recv calls
        #: (pickling included; CPU, so being descheduled mid-send for
        #: the worker just woken does not count its compute twice), and
        #: the worker's own CPU seconds outside run() (from its result).
        self.compute_s = 0.0
        self.wait_s = 0.0
        self.exchange_s = 0.0
        self.ipc_s = 0.0
        #: perf_counter when the last send returned (wait accounting).
        self.sent_at: Optional[float] = None
        #: Every message sent since the *first* spawn — the replay log.
        self.log: list[tuple] = []
        #: Responses absorbed so far, over every incarnation.  Position
        #: 0 is the initial state report; position ``i >= 1`` answers
        #: ``log[i - 1]``.
        self.acked = 0
        #: This incarnation's cursors (``_spawn`` resets both): log
        #: entries sent to it, and responses heard from it.  It is still
        #: catching up while ``heard < acked``.
        self.sent = 0
        self.heard = 0
        #: Wall-clock deadline for the outstanding response, if any.
        self.deadline: Optional[float] = None
        self.restarts = 0
        self.failures: list[dict[str, Any]] = []
        #: Per absorbed state report, by response position: ``(peek,
        #: events processed, outbox length)`` — what a respawned worker
        #: re-answering that position must reproduce.
        self.witness: list[tuple] = []
        self.last_window: Optional[int] = None
        self.events = 0
        self.result: Optional[tuple] = None

    @property
    def outstanding(self) -> bool:
        """Is there a request this worker has not answered yet?"""
        return self.acked < 1 + len(self.log)

    def forensics(self) -> dict[str, Any]:
        """Everything the post-mortem needs about this partition."""
        return {
            "partition": self.index,
            "restarts": self.restarts,
            "last_window": self.last_window,
            "acked_responses": self.acked,
            "log_messages": len(self.log),
            "events": self.events,
            "failures": list(self.failures),
        }


class Supervisor:
    """Crash-tolerant barrier-round coordinator for one partitioned run.

    Drives ``num_partitions`` worker processes through the conservative
    lookahead protocol (see :mod:`repro.scaleout.planner`), recovering
    dead or hung workers by respawn + window-log replay.  One instance
    runs one scenario once (:meth:`run`); ``registry`` (a
    :class:`~repro.observe.MetricRegistry`) receives the ``scaleout.*``
    metrics when that run ends, failed or not.
    """

    def __init__(self, scenario: ScaleoutScenario, num_partitions: int, *,
                 faults: Optional[FaultScenario] = None,
                 max_restarts: int = 2, registry=None) -> None:
        if num_partitions < 2:
            raise ScaleoutError(
                "the supervisor coordinates >= 2 workers; "
                "use run_single for one process")
        self.scenario = scenario
        self.num_partitions = num_partitions
        self.max_restarts = max_restarts
        self.partitioning = partition_fabric(scenario.fabric,
                                             num_partitions)
        self.owners = self.partitioning.owner_map()
        #: ``distance[src][dst]``: earliest a signal committed in
        #: ``src`` can land in ``dst`` (per-boundary lookahead, closed
        #: over multi-cut paths).
        self.distance = lookahead_matrix(self.partitioning,
                                         scenario.config())
        self.ctx = mp.get_context("fork")
        self.workers = [_Worker(i) for i in range(num_partitions)]
        #: The one wait object: every live worker's pipe end and process
        #: sentinel, keyed to ``(worker, is_pipe)``.
        self._selector = selectors.DefaultSelector()
        #: Per destination partition: the planner's pending-envelope heap.
        self.pending: list[list[tuple]] = [[] for _ in
                                           range(num_partitions)]
        self.peeks: list[Optional[int]] = [None] * num_partitions
        if faults is not None:
            sim_faults, process_events = faults.split_process_events()
            self._faults_spec = (sim_faults.to_dict()
                                 if sim_faults.events else None)
            self._kill_events = process_events
        else:
            self._faults_spec = None
            self._kill_events = []
        self._kills_fired: set[int] = set()
        self.rounds = 0
        self.envelopes = 0
        self.advances = 0
        self.restarts = 0
        self.replayed_windows = 0
        self.worker_kills = 0
        self.setup_s = 0.0
        self.coordinator_cpu_s = 0.0
        #: Envelopes routed, per destination partition.
        self.routed = [0] * num_partitions
        self.registry = registry

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def run(self) -> ScaleoutResult:
        """Drive the full protocol; always reaps every worker on exit."""
        start = time.perf_counter()
        try:
            for worker in self.workers:
                self._spawn(worker)
            self._fire_kills(window=0)
            self._collect()
            # Everything up to the last initial state report is setup —
            # fork, fabric build, traffic spawn — not exchange.
            self.setup_s = time.perf_counter() - start
            steady, cpu = time.perf_counter(), time.process_time()
            while self._round():
                pass
            for worker in self.workers:
                self._send(worker, ("finish",))
            self._collect()
            wall = time.perf_counter() - steady
            self.coordinator_cpu_s = time.process_time() - cpu
        finally:
            try:
                self._reap_all()
            finally:
                self._selector.close()
                if self.registry is not None:
                    self._publish(self.registry)
        results = [worker.result for worker in self.workers]
        return ScaleoutResult(
            self.scenario.name, self.num_partitions,
            events=sum(result[2] for result in results),
            sim_ns=max(result[3] for result in results),
            wall_s=wall, rounds=self.rounds, envelopes=self.envelopes,
            fingerprint=merge_fragments([result[1] for result in results]),
            restarts=self.restarts,
            replayed_windows=self.replayed_windows,
            worker_kills=self.worker_kills,
            setup_s=self.setup_s, advances=self.advances,
            timing={phase: [getattr(w, phase) for w in self.workers]
                    for phase in _PHASES},
            coordinator_cpu_s=self.coordinator_cpu_s,
            forensics=[w.forensics() for w in self.workers])

    def _publish(self, registry) -> None:
        """Write the run's ``scaleout.*`` metrics — once, at its end."""
        for name, what, unit in (
                ("restarts", "worker processes respawned after a failure",
                 "restarts"),
                ("replayed_windows",
                 "advance windows resent during log replay", "windows"),
                ("worker_kills",
                 "workers SIGKILLed by chaos campaign events", "kills"),
                ("rounds", "coordinator barrier rounds driven", "rounds"),
                ("advances", "advance grants actually sent (idle elision "
                 "skips the rest)", "messages")):
            registry.counter(f"scaleout.{name}", what,
                             unit=unit).inc(getattr(self, name))
        for name, what in (
                ("setup_s", "worker fork + fabric build time"),
                ("coordinator_cpu_s",
                 "coordinator CPU time over the steady phase")):
            registry.gauge(f"scaleout.{name}", what,
                           unit="s").set(getattr(self, name))
        for index, worker in enumerate(self.workers):
            registry.counter(
                f"scaleout.p{index}.envelopes",
                f"envelopes routed to partition {index}",
                unit="envelopes").inc(self.routed[index])
            registry.counter(
                f"scaleout.p{index}.restarts",
                f"partition {index} worker respawns",
                unit="restarts").inc(worker.restarts)
            for phase, what in _PHASES.items():
                registry.gauge(
                    f"scaleout.p{index}.{phase}",
                    f"partition {index}: {what}",
                    unit="s").set(getattr(worker, phase))

    def _round(self) -> bool:
        """Drive one barrier round; False when the run is done.

        :func:`~repro.scaleout.planner.plan_round` decides the grants;
        this sends each non-elided worker its grant with the envelopes
        due inside it, fires the kills due by the round's largest grant
        and collects the reports.
        """
        grants = plan_round(self.peeks, self.pending, self.distance)
        if grants is None:
            return False
        self.rounds += 1
        for worker, grant in zip(self.workers, grants):
            if grant is None:
                continue
            self._send(worker, ("advance", grant,
                                take_due(self.pending[worker.index], grant)))
            self.advances += 1
            worker.last_window = grant
        self._fire_kills(max(grant for grant in grants if grant is not None))
        self._collect()
        return True

    def _spawn(self, worker: _Worker) -> None:
        parent, child = self.ctx.Pipe()
        process = self.ctx.Process(
            target=_worker_main,
            args=(child, self.scenario.name, self.num_partitions,
                  worker.index, self._faults_spec),
            name=(f"scaleout-{self.scenario.name}-p{worker.index}"
                  f"-r{worker.restarts}"),
            daemon=True)
        process.start()
        # Close our copy of the child's pipe end, or EOF never fires.
        child.close()
        worker.process = process
        worker.conn = parent
        worker.watched = (parent, process.sentinel)
        self._selector.register(parent, selectors.EVENT_READ, (worker, True))
        self._selector.register(process.sentinel, selectors.EVENT_READ,
                                (worker, False))
        worker.sent = worker.heard = 0
        worker.sent_at = None
        worker.deadline = time.monotonic() + HANG_TIMEOUT_S

    # ------------------------------------------------------------------
    # sending and collecting
    # ------------------------------------------------------------------

    def _send(self, worker: _Worker, message: tuple) -> None:
        """Log ``message``; it goes out now if the worker has answered
        everything before it, else when its catch-up gets there."""
        worker.log.append(message)
        self._pump(worker)

    def _pump(self, worker: _Worker) -> None:
        """Lock-step: send the next log entry, if there is one and this
        incarnation has answered every earlier one (its initial state
        report included).  A broken pipe is a crash like any other."""
        if worker.heard <= worker.sent or worker.sent == len(worker.log):
            return
        cpu = time.process_time()
        try:
            worker.conn.send(worker.log[worker.sent])
        except OSError:
            self._recover(worker, "crash",
                          "pipe broke while sending the next command")
            return
        worker.exchange_s += time.process_time() - cpu
        worker.sent += 1
        # A resent, already-acknowledged position is recovery cost, not
        # wait: only the round trip that will be absorbed is timed.
        worker.sent_at = (time.perf_counter()
                          if worker.sent >= worker.acked else None)
        worker.deadline = time.monotonic() + HANG_TIMEOUT_S

    def _collect(self) -> None:
        """Wait until every worker has answered everything sent so far,
        recovering any worker that crashes or misses its deadline."""
        while True:
            lagging = [w for w in self.workers if w.outstanding]
            if not lagging:
                return
            now = time.monotonic()
            expired = [w for w in lagging if w.deadline is not None
                       and now > w.deadline]
            if expired:
                worker = expired[0]
                self._kill_process(worker)
                self._recover(
                    worker, "hang",
                    f"no answer within {HANG_TIMEOUT_S:.1f}s "
                    f"(last window {worker.last_window})")
                continue
            timeout = min(w.deadline for w in lagging
                          if w.deadline is not None) - now
            restarts = self.restarts
            for key, _events in self._selector.select(max(timeout, 0.001)):
                worker, is_pipe = key.data
                if not worker.outstanding:
                    # Nothing is asked of it, so it can only have exited
                    # (after its result, or killed while idle — the next
                    # send finds the broken pipe): stop it waking us.
                    self._unwatch(worker)
                elif is_pipe or worker.conn.poll(0):
                    # (A sentinel beside a readable pipe: the process is
                    # gone but its complete answer is still buffered.)
                    try:
                        message = self._recv(worker)
                    except (EOFError, OSError):
                        self._recover(worker, "crash",
                                      "pipe EOF while awaiting a response")
                    else:
                        self._handle(worker, message)
                else:
                    self._recover(worker, "crash",
                                  "worker process exited without answering")
                if self.restarts != restarts:
                    # A recovery replaced a worker's fds; the rest of
                    # this wake's keys may be stale.
                    break

    def _recv(self, worker: _Worker) -> tuple:
        """Receive one ready response and split its round trip's time.

        From the send's return to here the coordinator was blocked on
        this worker (in the selector); the part past the worker's own
        reported compute is *wait*.  The ``recv()`` itself — read +
        unpickle — is *exchange*, like the send.
        """
        began = time.perf_counter()
        cpu = time.process_time()
        message = worker.conn.recv()
        worker.exchange_s += time.process_time() - cpu
        if worker.sent_at is not None:
            if message[0] == "state":
                worker.wait_s += max(
                    began - worker.sent_at - message[4], 0.0)
            worker.sent_at = None
        return message

    def _handle(self, worker: _Worker, message: tuple) -> None:
        """Take one in-order response, then pump the worker's next entry.

        A position below ``acked`` is a respawned worker re-answering
        what its predecessor already answered — a deterministic
        duplicate: its envelopes were routed then, so the outbox is
        dropped, but it must match the position's witness or the run
        stops.  The position ``== acked`` is absorbed the same way
        whichever incarnation gives it.
        """
        tag = message[0]
        if tag == "error":
            self._recover(worker, "exception", message[1])
            return
        position = worker.heard
        worker.heard += 1
        worker.deadline = None
        if position < worker.acked:
            # Only state reports precede the last position (the result).
            replayed = (message[1], message[3], len(message[2]))
            if replayed != worker.witness[position]:
                self._reap_all()
                raise ScaleoutError(
                    f"scale-out {self.scenario.name!r} partition "
                    f"{worker.index}: replay diverged at log position "
                    f"{position} ((peek, events, envelopes) {replayed} != "
                    f"recorded {worker.witness[position]}); the "
                    f"determinism contract is broken",
                    forensics=[w.forensics() for w in self.workers])
        elif tag == "state":
            self._absorb(worker, message)
            worker.acked += 1
        elif tag == "result":
            worker.result = message
            worker.events, worker.ipc_s = message[2], message[4]
            worker.acked += 1
        else:  # pragma: no cover - protocol misuse
            raise ScaleoutError(
                f"scale-out {self.scenario.name!r} partition "
                f"{worker.index}: unknown worker response {tag!r}")
        self._pump(worker)

    def _absorb(self, worker: _Worker, state: tuple) -> None:
        """Route one state report's envelopes; track peek, events, the
        worker's reported compute time and the position's witness."""
        _tag, peek, outbox, events, compute = state
        worker.witness.append((peek, events, len(outbox)))
        worker.compute_s += compute
        self.peeks[worker.index] = peek
        worker.events = events
        self.envelopes += len(outbox)
        for envelope in outbox:
            destination = self.owners[envelope[3]]
            post(self.pending[destination], worker.index, envelope)
            self.routed[destination] += 1

    # ------------------------------------------------------------------
    # failure handling: record, reap, respawn
    # ------------------------------------------------------------------

    def _recover(self, worker: _Worker, reason: str, detail: str) -> None:
        """Record the failure and respawn ``worker``; the new incarnation
        catches up on the log through the ordinary wait (``_handle``).

        Raises :class:`ScaleoutError` with full forensics once the
        partition's restart budget is exhausted.
        """
        self._record_failure(worker, reason, detail)
        self._reap(worker)
        if worker.restarts >= self.max_restarts:
            self._give_up(worker, reason)
        worker.restarts += 1
        self.restarts += 1
        # Every advance logged so far goes to the new incarnation again.
        self.replayed_windows += sum(entry[0] == "advance"
                                     for entry in worker.log)
        self._spawn(worker)

    def _record_failure(self, worker: _Worker, reason: str,
                        detail: str) -> None:
        worker.failures.append({
            "reason": reason,
            "detail": detail,
            "exit_code": self._exit_code(worker),
            "last_window": worker.last_window,
            "events": worker.events,
            "acked_responses": worker.acked,
        })

    def _give_up(self, worker: _Worker, reason: str) -> None:
        """Budget exhausted: reap everything, raise with forensics."""
        self._reap_all()
        raise ScaleoutError(
            f"scale-out {self.scenario.name!r} partition {worker.index} "
            f"failed ({reason}) and exhausted its restart budget "
            f"({self.max_restarts} restarts); see forensics",
            forensics=[w.forensics() for w in self.workers])

    # ------------------------------------------------------------------
    # process plumbing
    # ------------------------------------------------------------------

    def _exit_code(self, worker: _Worker) -> Optional[int]:
        process = worker.process
        if process is None:
            return None
        process.join(timeout=_REAP_STEP_S)
        return process.exitcode

    def _kill_process(self, worker: _Worker) -> None:
        process = worker.process
        if process is not None and process.is_alive():
            process.kill()

    def _reap(self, worker: _Worker) -> None:
        """Terminate → SIGKILL → fail loudly if the process leaks."""
        process = worker.process
        if process is None:
            return
        process.join(timeout=_REAP_STEP_S)
        if process.is_alive():
            process.terminate()
            process.join(timeout=_REAP_STEP_S)
        if process.is_alive():
            process.kill()
            process.join(timeout=_REAP_STEP_S)
        if process.is_alive():
            raise ScaleoutError(
                f"scale-out {self.scenario.name!r} partition "
                f"{worker.index}: worker pid {process.pid} survived "
                f"terminate and SIGKILL; refusing to leak it silently",
                forensics=[w.forensics() for w in self.workers])
        self._unwatch(worker)
        if worker.conn is not None:
            worker.conn.close()
            worker.conn = None
        worker.process = None

    def _unwatch(self, worker: _Worker) -> None:
        """Take a worker's fds out of the selector (before they close:
        the number may be reused by the next incarnation's)."""
        for fileobj in worker.watched:
            self._selector.unregister(fileobj)
        worker.watched = ()

    def _reap_all(self) -> None:
        for worker in self.workers:
            self._kill_process(worker)
        for worker in self.workers:
            self._reap(worker)

    # ------------------------------------------------------------------
    # process-level chaos
    # ------------------------------------------------------------------

    def _fire_kills(self, window: int) -> None:
        """SIGKILL workers matched by due ``kill_worker`` events.

        An event is due once a round's largest grant reaches its
        ``at_ns`` (``at_ns <= 0`` fires right after spawn, before the
        first state report).  Each event fires exactly once; whichever
        instant the signal lands, replay restores bit-identical state,
        so the run's digest is unaffected — only the restart counters
        and wall clock change.
        """
        for index, event in enumerate(self._kill_events):
            if index in self._kills_fired or event.at_ns > window:
                continue
            self._kills_fired.add(index)
            for worker in self.workers:
                if not fnmatchcase(str(worker.index), event.target):
                    continue
                process = worker.process
                if process is None or not process.is_alive():
                    continue
                os.kill(process.pid, signal.SIGKILL)
                self.worker_kills += 1
