"""The scale-out supervisor: the worker processes of one partitioned run.

Workers run the conservative-lookahead rounds among themselves
(:mod:`repro.scaleout.worker`); the :class:`Supervisor` keeps only the
process lifecycle:

* **Start.**  It forks one worker per partition, with a pipe from each
  worker to each other one, and says ``go`` once every worker has built
  its partition and exchanged its initial report.  It then only
  listens: heartbeats (at most one per worker per wall-clock second,
  naming the peer a worker is blocked on) and results.

* **Detection.**  Worker pipes and process sentinels are watched by one
  :mod:`selectors` object.  A worker that dies is a **crash** (exit
  code recorded), one that raises ships its traceback (**exception**),
  and one silent for :data:`HANG_TIMEOUT_S` is a **hang**.  A worker
  whose peer pipe breaks reports **peer-lost**: it is collateral, not
  the failure.  Workers that planned different grants end the run with
  "planner diverged".

* **Fail, don't restart.**  The first failure reaps every worker and
  raises one :class:`~repro.errors.ScaleoutError` that names the
  scenario and the failing partition and carries per-partition
  forensics.  A worker is a deterministic function of ``(scenario,
  partition index)`` and its peers' reports, so a retry would fail the
  same way; a caller that wants one writes a loop.

* **What a worker holds.**  The coordinator routes the scenario's flows
  once (:func:`~repro.scaleout.partition.flow_paths`), cuts the fabric
  by those paths (:func:`~repro.scaleout.partition.partition_fabric`)
  and declares them, both ways, as the run's route set
  (:func:`~repro.scaleout.partition.route_set`; none under a fault
  campaign, whose reroutes make routes dynamic).  It hands every worker
  the scenario, the partitioning, the fault campaign and the route set
  as objects through the fork: no registry lookup, no second cut or
  route, no pickling.

* **Partition-aware faults.**  A :class:`~repro.faults.FaultScenario`
  can ride along: its events are handed to *every* worker verbatim
  (each applies the slice whose targets it materialized locally), so a
  faulted partitioned run stays digest-identical to the faulted
  single-process run.

``docs/SCALEOUT.md`` states the protocol ("The synchronization
protocol", "Grants") and the failure contract ("Fault tolerance").
"""

from __future__ import annotations

import selectors
import time
import multiprocessing as mp
from typing import Any, NoReturn, Optional

from ..errors import ScaleoutError
from ..faults.campaigns import build_campaign
from ..faults.scenario import FaultScenario
from .escl import ScaleoutResult, ScaleoutScenario, merge_fragments
from .partition import flow_paths, partition_fabric, route_set
from .worker import worker_main

__all__ = ["ESCL_CAMPAIGNS", "Supervisor", "escl_campaign"]

#: Seconds a worker may stay silent before it counts as hung.
HANG_TIMEOUT_S = 600.0
#: Seconds granted to each escalation step when reaping a worker.
_REAP_STEP_S = 5.0
#: The timing buckets every worker measures over the steady phase, with
#: what each ``scaleout.p<i>.<bucket>`` gauge says it measures.
_PHASES = {
    "compute_s": "worker wall time inside run()",
    "wait_s": "worker wall time blocked on peer reports",
    "exchange_s": "worker CPU time exchanging reports: pickling, "
                  "sending, receiving, filing envelopes",
    "ipc_s": "worker CPU time outside run()",
}

#: The campaigns an E-SCL run takes (``scaleout --faults``).
ESCL_CAMPAIGNS = ("drop-burst", "corrupt-burst", "reply-storm",
                  "link-flap")
#: E-SCL runs finish within a few hundred microseconds of simulated
#: time (vs the default workload's milliseconds), so those campaigns
#: share one window placed inside that span to fire at all.
_ESCL_WINDOW = {"start_ns": 5_000, "horizon_ns": 150_000,
                "duration_ns": 30_000}


def escl_campaign(name: str, cfg) -> FaultScenario:
    """Build a named campaign with windows sized for E-SCL runs."""
    window = _ESCL_WINDOW if name in ESCL_CAMPAIGNS else {}
    return build_campaign(name, cfg, **window)


class _Worker:
    """One partition's process handle plus what it last reported."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[mp.process.BaseProcess] = None
        self.conn = None
        #: What the supervisor's selector holds for this worker:
        #: ``(conn, process sentinel)``, or ``()`` once unregistered.
        self.watched: tuple = ()
        #: ``spawned`` → ``ready`` → ``running`` → ``done``, or ``lost``
        #: once it reports a broken peer pipe (collateral).
        self.state = "spawned"
        #: Wall-clock instant past which its silence is a hang.
        self.deadline: Optional[float] = None
        #: The peer its last heartbeat said it was blocked on, or the
        #: one whose pipe broke (``lost``).
        self.blocked_on: Optional[int] = None
        #: What ended the run here, or ``None``.
        self.failure: Optional[dict[str, Any]] = None
        self.last_round = 0
        self.last_window: Optional[int] = None
        self.events = 0
        self.result: Optional[dict[str, Any]] = None

    def forensics(self) -> dict[str, Any]:
        """Everything the post-mortem needs about this partition."""
        return {
            "partition": self.index,
            "last_round": self.last_round,
            "last_window": self.last_window,
            "events": self.events,
            "blocked_on": self.blocked_on,
            "failure": self.failure,
        }


class Supervisor:
    """Lifecycle of the worker processes of one partitioned run.

    Forks ``num_partitions`` workers that run the conservative
    lookahead protocol among themselves (see
    :mod:`repro.scaleout.planner`), and ends the run in one
    :class:`~repro.errors.ScaleoutError` when one fails.  One instance
    runs one scenario once (:meth:`run`); ``registry`` (a
    :class:`~repro.observe.MetricRegistry`) receives the ``scaleout.*``
    metrics when that run ends, failed or not.
    """

    def __init__(self, scenario: ScaleoutScenario, num_partitions: int, *,
                 faults: Optional[FaultScenario] = None,
                 registry=None) -> None:
        if num_partitions < 2:
            raise ScaleoutError(
                "the supervisor coordinates >= 2 workers; "
                "use run_single for one process")
        # The one cut of the run; an impossible one fails here, not
        # once per worker.
        paths = flow_paths(scenario.fabric, scenario.flows())
        self.partitioning = partition_fabric(
            scenario.fabric, num_partitions, paths)
        self.scenario = scenario
        self.num_partitions = num_partitions
        self.ctx = mp.get_context("fork")
        self.workers = [_Worker(i) for i in range(num_partitions)]
        #: The one wait object: every live worker's pipe end and process
        #: sentinel, keyed to ``(worker, is_pipe)``.
        self._selector = selectors.DefaultSelector()
        self.faults = faults if faults is not None and faults.events \
            else None
        #: The declared route set (``None``: every cut link may carry
        #: traffic, as a fault campaign's reroutes can make it).
        self.routes = None if self.faults else route_set(paths)
        self.rounds = 0
        self.envelopes = 0
        self.advances = 0
        self.setup_s = 0.0
        self.coordinator_cpu_s = 0.0
        self.registry = registry

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def run(self) -> ScaleoutResult:
        """Run the scenario to the end; always reaps every worker."""
        start = time.perf_counter()
        try:
            self._spawn_all()
            self._collect("ready")
            # Fork, fabric build, traffic spawn and the initial exchange
            # are setup.
            self.setup_s = time.perf_counter() - start
            steady, cpu = time.perf_counter(), time.process_time()
            for worker in self.workers:
                self._go(worker)
            self._collect("done")
            wall = time.perf_counter() - steady
            self.coordinator_cpu_s = time.process_time() - cpu
            self._check_plans()
        finally:
            try:
                self._reap_all()
            finally:
                self._selector.close()
                if self.registry is not None:
                    self._publish(self.registry)
        results = [worker.result for worker in self.workers]
        fingerprint = merge_fragments([result["fragment"]
                                       for result in results])
        return ScaleoutResult(
            self.scenario.name, self.num_partitions,
            events=sum(worker.events for worker in self.workers),
            sim_ns=max(result["sim_ns"] for result in results),
            wall_s=wall, rounds=self.rounds, envelopes=self.envelopes,
            fingerprint=fingerprint,
            setup_s=self.setup_s, advances=self.advances,
            timing={phase: [result["timing"][phase] for result in results]
                    for phase in _PHASES},
            coordinator_cpu_s=self.coordinator_cpu_s,
            forensics=[w.forensics() for w in self.workers],
            goodput_mbps=self.scenario.goodput_mbps(fingerprint))

    def _check_plans(self) -> None:
        """Every worker must have planned the same rounds."""
        plans = [(w.result["plan"], w.result["rounds"],
                  w.result["advances"], w.result["envelopes"])
                 for w in self.workers]
        if len(set(plans)) > 1:
            self._diverged(self.workers[0], "grant digests, rounds, "
                           "advances, envelopes per partition: "
                           f"{plans}")
        _plan, self.rounds, self.advances, self.envelopes = plans[0]

    def _publish(self, registry) -> None:
        """Write the run's ``scaleout.*`` metrics — once, at its end."""
        entries = [
            ("rounds", "counter", "rounds", "rounds the workers planned",
             self.rounds),
            ("advances", "counter", "grants",
             "grants run (idle elision skips the rest)", self.advances),
            ("setup_s", "gauge", "s", "worker fork + fabric build time",
             self.setup_s),
            ("coordinator_cpu_s", "gauge", "s",
             "coordinator CPU time over the steady phase",
             self.coordinator_cpu_s)]
        for index, worker in enumerate(self.workers):
            result = worker.result or {"inbound": 0, "timing": {}}
            entries.append((f"p{index}.envelopes", "counter", "envelopes",
                            f"envelopes routed to partition {index}",
                            result["inbound"]))
            entries.extend((f"p{index}.{phase}", "gauge", "s",
                            f"partition {index}: {what}",
                            result["timing"].get(phase, 0.0))
                           for phase, what in _PHASES.items())
        for name, kind, unit, what, value in entries:
            registry.add(f"scaleout.{name}", lambda value=value: value,
                         kind=kind, unit=unit, description=what)

    def _spawn_all(self) -> None:
        """Fork every worker, with a pipe from each to each other."""
        count = self.num_partitions
        # readers[i][j] reads what writers[j][i] writes: j to i.
        readers: list[list[Any]] = [[None] * count for _ in range(count)]
        writers: list[list[Any]] = [[None] * count for _ in range(count)]
        for source in range(count):
            for sink in range(count):
                if source != sink:
                    readers[sink][source], writers[source][sink] = \
                        self.ctx.Pipe(duplex=False)
        every = [end for row in readers + writers for end in row
                 if end is not None]
        for worker in self.workers:
            self._spawn(worker, readers[worker.index],
                        writers[worker.index], every)
        for end in every:
            end.close()

    def _spawn(self, worker: _Worker, inbox: list, outbox: list,
               every: list) -> None:
        parent, child = self.ctx.Pipe()
        process = self.ctx.Process(
            target=worker_main,
            args=(child, inbox, outbox, every, self.scenario,
                  self.partitioning, worker.index, self.faults,
                  self.routes),
            name=f"scaleout-{self.scenario.name}-p{worker.index}",
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
        worker.deadline = time.monotonic() + HANG_TIMEOUT_S

    def _go(self, worker: _Worker) -> None:
        try:
            worker.conn.send("go")
        except OSError:
            pass  # it died after its ready: the wait finds the sentinel
        worker.state = "running"
        worker.deadline = time.monotonic() + HANG_TIMEOUT_S

    # ------------------------------------------------------------------
    # the wait
    # ------------------------------------------------------------------

    def _collect(self, goal: str) -> None:
        """Wait until every worker is in state ``goal``; raises on the
        first failure.  The only place the coordinator blocks."""
        while True:
            short = [w for w in self.workers if w.state != goal]
            if not short:
                return
            live = [w for w in short if w.state != "lost"]
            if not live:
                # Everyone still short of the goal lost a peer that
                # itself finished: the workers disagree on the end.
                lost = short[0]
                self._diverged(lost, f"lost partition {lost.blocked_on} "
                                     f"after it finished")
            now = time.monotonic()
            silent = [w for w in live if w.deadline is not None
                      and now > w.deadline]
            if silent:
                worker = silent[0]
                self._kill_process(worker)
                waiting = [w.index for w in self.workers
                           if w.blocked_on == worker.index]
                self._fail(
                    worker, "hang",
                    f"silent for {HANG_TIMEOUT_S:.1f}s at round "
                    f"{worker.last_round}; partitions {waiting} waited "
                    f"on it")
            timeout = min((w.deadline for w in live
                           if w.deadline is not None),
                          default=now + HANG_TIMEOUT_S) - now
            for key, _events in self._selector.select(max(timeout, 0.001)):
                worker, is_pipe = key.data
                if not worker.watched:
                    continue  # done or lost earlier in this wake
                message = None
                if is_pipe or worker.conn.poll(0):
                    # (A sentinel beside a readable pipe: the process is
                    # gone but its last message is still buffered.)
                    try:
                        message = self._recv(worker)
                    except (EOFError, OSError):
                        pass
                if message is None:
                    self._fail(worker, "crash",
                               "worker process exited without reporting")
                self._handle(worker, message)

    def _recv(self, worker: _Worker) -> tuple:
        return worker.conn.recv()

    def _handle(self, worker: _Worker, message: tuple) -> None:
        """Take one worker message."""
        tag, (worker.last_round, window, worker.events), body = message
        if window is not None:
            worker.last_window = window
        self.rounds = max(self.rounds, worker.last_round)
        worker.deadline = time.monotonic() + HANG_TIMEOUT_S
        if tag == "beat":
            worker.blocked_on = body
        elif tag == "error":
            self._fail(worker, "exception", body)
        elif tag == "diverged":
            self._diverged(worker, body)
        else:
            # ready, result or peer-lost: it waits for ``go`` or exits,
            # and neither is a hang; an exit now is no crash either.
            worker.deadline = None
            if tag == "ready":
                worker.state = "ready"
            else:
                self._unwatch(worker)
                if tag == "result":
                    worker.state, worker.result = "done", body
                else:
                    worker.state, worker.blocked_on = "lost", body

    # ------------------------------------------------------------------
    # failure handling: record, reap, raise
    # ------------------------------------------------------------------

    def _fail(self, worker: _Worker, reason: str, detail: str) -> NoReturn:
        """Record ``worker``'s failure, reap every worker and raise.

        A run is a deterministic function of its scenario, so a retry
        would fail the same way: the first failure ends the run.
        """
        worker.failure = {
            "reason": reason,
            "detail": detail,
            "exit_code": self._exit_code(worker),
            "last_round": worker.last_round,
            "last_window": worker.last_window,
            "events": worker.events,
        }
        self._reap_all()
        raise ScaleoutError(
            f"scale-out {self.scenario.name!r} partition {worker.index} "
            f"failed ({reason}); see forensics",
            forensics=[w.forensics() for w in self.workers])

    def _diverged(self, worker: _Worker, detail: str) -> NoReturn:
        """Two workers planned differently."""
        self._reap_all()
        raise ScaleoutError(
            f"scale-out {self.scenario.name!r} partition {worker.index}: "
            f"planner diverged ({detail}); the determinism contract is "
            f"broken",
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
        a closed fd's number may be reused)."""
        for fileobj in worker.watched:
            self._selector.unregister(fileobj)
        worker.watched = ()

    def _reap_all(self) -> None:
        for worker in self.workers:
            self._kill_process(worker)
        for worker in self.workers:
            self._reap(worker)
