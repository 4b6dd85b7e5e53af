"""Distributed transactions over Nectar (§7).

"Examples of such applications include distributed transaction systems,
such as Camelot [13]."  A compact transaction facility in that style:
versioned key-value participants on CABs, two-phase commit driven by a
coordinator task, write locks taken at prepare time, abort on conflict.
Commit latency — the metric that made low-latency networks interesting
to the Camelot group — is recorded per transaction.
"""

from __future__ import annotations

import json
from itertools import count
from typing import TYPE_CHECKING

from ..errors import NectarError
from ..nectarine.api import NectarineRuntime, Task
from ..stats.recorders import LatencyRecorder

if TYPE_CHECKING:  # pragma: no cover
    from ..system.builder import CabStack, NectarSystem

#: CPU cost of log-record forcing at prepare/commit (stable storage is
#: the node's job; the CAB charges the hand-off).
LOG_FORCE_CPU_NS = 5_000


class TransactionAborted(NectarError):
    """The transaction lost a conflict and was rolled back."""


class Participant:
    """A versioned key-value store with 2PC vote/commit handlers."""

    def __init__(self, manager: "TransactionManager", index: int,
                 stack: "CabStack") -> None:
        self.manager = manager
        self.index = index
        self.stack = stack
        self.store: dict[str, int] = {}
        #: key -> txn id holding the write lock.
        self.locks: dict[str, int] = {}
        #: txn id -> staged writes.
        self.staged: dict[int, dict[str, int]] = {}
        self.task = manager.runtime.create_task(f"txn-p{index}", stack)
        self.task.start(self._serve)

    def _serve(self, task: Task):
        while True:
            message = yield from task.receive()
            request = json.loads(message.data.decode())
            kind = request["kind"]
            if kind == "prepare":
                yield from self._prepare(task, message, request)
            elif kind == "commit":
                yield from self._commit(task, message, request)
            elif kind == "abort":
                yield from self._abort(task, message, request)
            elif kind == "read":
                value = self.store.get(request["key"], 0)
                yield from task.respond(
                    message, json.dumps({"value": value}).encode())

    def _prepare(self, task: Task, message, request):
        txn = request["txn"]
        writes = request["writes"]
        conflict = any(self.locks.get(key, txn) != txn for key in writes)
        yield from self.stack.kernel.compute(LOG_FORCE_CPU_NS)
        if conflict:
            yield from task.respond(
                message, json.dumps({"vote": "no"}).encode())
            return
        for key in writes:
            self.locks[key] = txn
        self.staged[txn] = writes
        yield from task.respond(
            message, json.dumps({"vote": "yes"}).encode())

    def _commit(self, task: Task, message, request):
        txn = request["txn"]
        writes = self.staged.pop(txn, {})
        yield from self.stack.kernel.compute(LOG_FORCE_CPU_NS)
        for key, value in writes.items():
            self.store[key] = value
            self.locks.pop(key, None)
        yield from task.respond(message, b'{"ok": true}')

    def _abort(self, task: Task, message, request):
        txn = request["txn"]
        writes = self.staged.pop(txn, {})
        for key in writes:
            if self.locks.get(key) == txn:
                del self.locks[key]
        yield from task.respond(message, b'{"ok": true}')


class TransactionManager:
    """Coordinators and participants for one Nectar installation."""

    def __init__(self, system: "NectarSystem",
                 participant_stacks: list["CabStack"]) -> None:
        if not participant_stacks:
            raise NectarError("need at least one participant")
        self.system = system
        self.runtime = NectarineRuntime(system)
        self.participants = [Participant(self, index, stack)
                             for index, stack in
                             enumerate(participant_stacks)]
        self.commit_latency = LatencyRecorder("commit")
        self.commits = 0
        self.aborts = 0
        #: Participants key their locks by transaction id, so every
        #: coordinator of this manager draws its ids from this one count.
        self.txn_ids = count(1)

    def participant_for(self, key: str) -> Participant:
        digest = sum(key.encode()) * 2654435761 % (1 << 32)
        return self.participants[digest % len(self.participants)]

    def coordinator(self, name: str, stack: "CabStack") -> "Coordinator":
        return Coordinator(self, name, stack)


class Coordinator:
    """Client-side transaction driver (runs inside a CAB task)."""

    def __init__(self, manager: TransactionManager, name: str,
                 stack: "CabStack") -> None:
        self.manager = manager
        self.task = manager.runtime.create_task(f"txn-c:{name}", stack)

    def run(self, body):
        """Start the coordinator task with ``body(coordinator)``."""
        self.task.start(lambda _task: body(self))

    # -- operations usable inside the coordinator body (generators) -----

    def read(self, key: str):
        participant = self.manager.participant_for(key)
        response = yield from self.task.request(
            participant.task,
            json.dumps({"kind": "read", "key": key}).encode())
        return json.loads(response.data.decode())["value"]

    def execute(self, writes: dict[str, int]):
        """Two-phase commit of ``writes``; raises on conflict."""
        txn = next(self.manager.txn_ids)
        started = self.manager.system.sim.now
        by_participant: dict[int, dict[str, int]] = {}
        for key, value in writes.items():
            participant = self.manager.participant_for(key)
            by_participant.setdefault(participant.index, {})[key] = value
        # Phase 1: prepare (votes).
        votes = []
        for index, shard in sorted(by_participant.items()):
            response = yield from self.task.request(
                self.manager.participants[index].task,
                json.dumps({"kind": "prepare", "txn": txn,
                            "writes": shard}).encode())
            votes.append(json.loads(response.data.decode())["vote"])
        decision = "commit" if all(vote == "yes" for vote in votes) \
            else "abort"
        # Phase 2: decision to every prepared participant.
        for index in sorted(by_participant):
            yield from self.task.request(
                self.manager.participants[index].task,
                json.dumps({"kind": decision, "txn": txn}).encode())
        if decision == "abort":
            self.manager.aborts += 1
            raise TransactionAborted(f"txn {txn} aborted on conflict")
        self.manager.commits += 1
        self.manager.commit_latency.add(
            self.manager.system.sim.now - started)
        return txn
