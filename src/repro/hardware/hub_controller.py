"""The HUB central controller (§4.1).

Commands that require serialisation — opens and locks — are forwarded here
by the I/O ports.  The controller executes one command per 70 ns cycle, so
it "can set up a new connection through the crossbar switch every 70
nanosecond cycle" (§4, goal 2).  Retrying commands do not stall the
pipeline: a refused ``*_with_retry`` registers as a waiter on its output
port and is re-issued (costing a fresh cycle) when the port frees or its
ready bit rises.

The pipeline is an idle/busy state machine: a command that finds it idle
starts its cycle inside :meth:`HubController.submit`, one ``call_in`` per
command ends the cycle and dispatches it, and commands arriving meanwhile
wait in a FIFO backlog.  No process, no queue hand-off events.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ..config import HUB_CYCLE_NS
from ..sim import Event
from .frames import HubCommand
from .hub_commands import CommandOp

if TYPE_CHECKING:  # pragma: no cover
    from .hub import Hub


@dataclass
class ControllerJob:
    """One command in flight through the controller."""

    command: HubCommand
    in_port: int
    reverse_path: list = field(default_factory=list)
    done: Optional[Event] = None
    attempts: int = 0
    deadline_armed: bool = False

    @property
    def finished(self) -> bool:
        return self.done is not None and self.done.triggered

    def finish(self, ok: bool, **info: Any) -> None:
        result = {"ok": ok, **info}
        if self.done is not None and not self.done.triggered:
            self.done.succeed(result)


class HubController:
    """Serialises connection and lock commands at one per cycle."""

    def __init__(self, hub: "Hub") -> None:
        self.hub = hub
        self.sim = hub.sim
        #: The command whose 70 ns cycle is running (None: pipeline idle).
        self._current: Optional[ControllerJob] = None
        #: Commands that arrived during a cycle, oldest first.
        self._backlog: deque[ControllerJob] = deque()
        #: Per-output FIFO of jobs waiting for the port to free or ready.
        self._waiters: dict[int, list[ControllerJob]] = {}
        self.commands_executed = 0
        self.frozen = False
        #: Watchdog limit (cycles) for retrying jobs; 0 disables.
        self.retry_timeout_cycles = 0

    # ------------------------------------------------------------------

    def submit(self, command: HubCommand, in_port: int,
               reverse_path: list) -> Event:
        """Queue a command; the returned event fires with a result dict."""
        job = ControllerJob(command, in_port, reverse_path,
                            done=self.sim.event())
        self._enqueue(job)
        return job.done

    def _enqueue(self, job: ControllerJob) -> None:
        if self._current is None:
            self._begin(job)
        else:
            self._backlog.append(job)

    def _begin(self, job: ControllerJob) -> None:
        # One command per controller cycle (§4, goal 2).
        self._current = job
        self.sim.call_in(HUB_CYCLE_NS, self._cycle_done)

    def _cycle_done(self) -> None:
        self.commands_executed += 1
        # Jobs the dispatch re-issues (notify) join the tail of the
        # backlog: the pipeline still reads busy while the command executes.
        self._dispatch(self._current)
        if self._backlog:
            self._begin(self._backlog.popleft())
        else:
            self._current = None

    # ------------------------------------------------------------------

    def _dispatch(self, job: ControllerJob) -> None:
        command = job.command
        op = command.op
        job.attempts += 1
        if self.frozen and not op.is_supervisor:
            job.finish(False, reason="frozen")
            return
        if op.is_collective:
            # Combining happens at controller-cycle rate; the unit
            # finishes the job immediately (never parking the port) and
            # answers the origin with its own reply later.
            self.hub.collectives.execute(job)
            return
        if op.is_open:
            self._try_open(job)
        elif op in (CommandOp.LOCK, CommandOp.LOCK_REPLY,
                    CommandOp.LOCK_RETRY_REPLY):
            self._try_lock(job)
        elif op is CommandOp.UNLOCK:
            self._unlock(job)
        else:  # pragma: no cover - ports never route others here
            job.finish(False, reason="not a controller command")

    def _try_open(self, job: ControllerJob) -> None:
        hub = self.hub
        out_port = job.command.param
        if not 0 <= out_port < hub.cfg.num_ports:
            job.finish(False, reason="bad port")
            return
        port = hub.ports[out_port]
        problem: Optional[str] = None
        if not port.enabled:
            # A disabled port never frees; retrying would hang forever.
            job.finish(False, reason="port disabled")
            return
        holder = hub.locks.get(out_port)
        if holder is not None and holder != job.command.origin:
            problem = "locked"
        elif hub.crossbar.output_busy(out_port) \
                and hub.crossbar.owner_of(out_port) != job.in_port:
            problem = "busy"
        elif job.command.op.is_test_open and not hub.ready_bits[out_port]:
            problem = "not ready"
        if problem is None:
            hub.crossbar.connect(job.in_port, out_port)
            hub.count("opens_ok")
            job.finish(True, out_port=out_port)
            return
        hub.count("opens_refused")
        if job.command.op.has_retry and not self._watchdog_expired(job):
            self._wait_on(out_port, job)
        else:
            job.finish(False, reason=problem)

    def _try_lock(self, job: ControllerJob) -> None:
        hub = self.hub
        out_port = job.command.param
        if not 0 <= out_port < hub.cfg.num_ports:
            job.finish(False, reason="bad port")
            return
        holder = hub.locks.get(out_port)
        if holder is None or holder == job.command.origin:
            hub.locks[out_port] = job.command.origin
            hub.count("locks_taken")
            job.finish(True, locked=out_port)
        elif job.command.op.has_retry and not self._watchdog_expired(job):
            self._wait_on(out_port, job)
        else:
            job.finish(False, reason="locked", holder=holder)

    def _unlock(self, job: ControllerJob) -> None:
        hub = self.hub
        out_port = job.command.param
        holder = hub.locks.get(out_port)
        if holder != job.command.origin:
            job.finish(False, reason="not lock holder", holder=holder)
            return
        del hub.locks[out_port]
        hub.count("locks_released")
        job.finish(True)
        # Lock release can unblock queued opens on that output.
        self.notify(out_port)

    # ------------------------------------------------------------------
    # retry machinery
    # ------------------------------------------------------------------

    def _watchdog_expired(self, job: ControllerJob) -> bool:
        if self.retry_timeout_cycles <= 0:
            return False
        return job.attempts > self.retry_timeout_cycles

    def _wait_on(self, out_port: int, job: ControllerJob) -> None:
        self._waiters.setdefault(out_port, []).append(job)
        if self.retry_timeout_cycles > 0 and not job.deadline_armed:
            # The retry watchdog (SV_SET_TIMEOUT): abandon a retrying
            # command that has waited the configured number of cycles.
            job.deadline_armed = True
            delay = self.retry_timeout_cycles * HUB_CYCLE_NS
            self.sim.call_in(delay, lambda: self._expire(out_port, job))

    def _expire(self, out_port: int, job: ControllerJob) -> None:
        if job.finished:
            return
        waiters = self._waiters.get(out_port)
        if waiters and job in waiters:
            waiters.remove(job)
        self.hub.count("retry_watchdog_expirations")
        job.finish(False, reason="retry timeout")

    def notify(self, out_port: int) -> None:
        """The output freed / became ready / unlocked: re-issue waiters.

        All waiters re-enter the command queue; the first keeps the port
        and the rest re-register, preserving FIFO fairness.
        """
        jobs = self._waiters.pop(out_port, None)
        if not jobs:
            return
        for job in jobs:
            self._enqueue(job)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def register_metrics(self, sampler) -> None:
        """Export controller health as sampled series (``repro.observe``).

        Queue depth and waiter count expose head-of-line pressure on the
        one-command-per-cycle pipeline; the frozen gauge and watchdog
        counter surface supervisor interventions.
        """
        name = self.hub.name
        sampler.add_probe(
            f"{name}.controller.commands",
            lambda: float(self.commands_executed),
            description="commands executed by the central controller",
            unit="commands")
        sampler.add_utilization_probe(
            f"{name}.controller.util",
            lambda: self.commands_executed,
            HUB_CYCLE_NS,
            description="fraction of controller cycles spent executing")
        sampler.add_probe(
            f"{name}.controller.queue_depth",
            lambda: float(len(self._backlog)),
            description="commands queued for the controller pipeline",
            unit="commands")
        sampler.add_probe(
            f"{name}.controller.waiters",
            lambda: float(sum(len(jobs) for jobs in self._waiters.values())),
            description="retrying commands parked on busy outputs",
            unit="commands")
        sampler.add_probe(
            f"{name}.controller.frozen",
            lambda: float(self.frozen),
            description="1 while SV_FREEZE blocks user commands",
            unit="bool")
        sampler.add_probe(
            f"{name}.controller.retry_expirations",
            lambda: float(self.hub.counters.get(
                "retry_watchdog_expirations", 0)),
            description="retrying commands abandoned by the watchdog",
            unit="events")

    def reset(self) -> None:
        """Supervisor reset: fail all queued and waiting commands."""
        for jobs in self._waiters.values():
            for job in jobs:
                job.finish(False, reason="hub reset")
        self._waiters.clear()
        while self._backlog:
            self._backlog.popleft().finish(False, reason="hub reset")
