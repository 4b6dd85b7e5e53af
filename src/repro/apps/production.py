"""The parallel production system of §7.

"We are implementing a parallel production system as an example of an
application that requires run-time load balancing.  Matching is performed
in parallel using a distributed RETE network, and tokens that propagate
through the network are stored in a distributed task queue.  The low
latency communication of Nectar provides good support for the
fine-grained parallelism required by this application."

Model: the RETE alpha/beta network is partitioned across worker CABs.
Tokens are small typed messages; processing a token costs match time and
probabilistically emits successor tokens routed by attribute hash (the
distributed task queue is the set of worker mailboxes).  Generation depth
bounds the run.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from ..config import WAKEUP_NS
from ..nectarine.api import NectarineRuntime, Task
from ..stats.recorders import LatencyRecorder

if TYPE_CHECKING:  # pragma: no cover
    from ..system.builder import CabStack, NectarSystem

_TOKEN = struct.Struct("<IIHHQ")
#: Gap between seed tokens: working-memory elements arrive over time,
#: not as one burst (run-time load balancing is the point, §7).
SEED_INTERVAL_NS = 50_000
#: First wait for local work before a steal attempt (doubles per failed
#: steal, up to 64x).
STEAL_IDLE_NS = 100_000


class ProductionSystemApp:
    """A distributed RETE matcher over Nectar."""

    def __init__(self, system: "NectarSystem", workers: list["CabStack"],
                 match_cost_ns: int = 20_000,
                 branching: float = 0.9,
                 max_depth: int = 6,
                 work_stealing: bool = False) -> None:
        if len(workers) < 2:
            raise ValueError("production system needs >= 2 workers")
        self.system = system
        self.runtime = NectarineRuntime(system)
        self.match_cost_ns = match_cost_ns
        self.branching = branching
        self.max_depth = max_depth
        #: §7: "an application that requires run-time load balancing."
        #: With stealing on, an idle worker pulls queued tokens from a
        #: random victim through that worker's steal-service task — a
        #: second reader on the same mailbox (multi-reader mailboxes,
        #: §6.1, are exactly what makes this cheap).
        self.work_stealing = work_stealing
        self.tokens_stolen = 0
        self.steal_attempts = 0
        self._steal_failures: dict[int, int] = {}
        self.last_activity = 0
        self.rng = system.cfg.rng_stream("production")
        self.tokens_processed = 0
        self.tokens_emitted = 0
        self.per_worker_processed: dict[int, int] = {}
        self.hop_latency = LatencyRecorder("token-hop")
        self._next_token_id = 0
        self.tasks: list[Task] = []
        for index, worker in enumerate(workers):
            task = self.runtime.create_task(f"rete{index}", worker)
            self.tasks.append(task)
            self.per_worker_processed[index] = 0
        if work_stealing:
            for index, task in enumerate(self.tasks):
                service = self.runtime.create_task(f"steal{index}",
                                                   task.location)
                service.start(lambda t, i=index:
                              self._steal_service_body(t, i))
                self.tasks[index].steal_service = service
        for index, task in enumerate(self.tasks):
            task.start(lambda t, i=index: self._worker_body(t, i))

    # ------------------------------------------------------------------

    def _pack_token(self, token_id: int, depth: int, kind: int,
                    sent_at: int) -> bytes:
        return _TOKEN.pack(token_id, depth, kind, 0, sent_at)

    def _route(self, kind: int) -> Task:
        return self.tasks[(kind * 2654435761) % len(self.tasks)]

    def seed_tokens(self, count: int) -> None:
        """Inject initial working-memory elements (from a driver task)."""
        driver = self.runtime.create_task("wme-driver", self.tasks[0].location)
        driver.start(lambda task: self._driver_body(task, count))

    def _driver_body(self, task: Task, count: int):
        kernel = task.location.kernel
        for _ in range(count):
            kind = self.rng.randrange(64)
            token = self._new_token(depth=0, kind=kind)
            yield from task.send(self._route(kind), token)
            self.tokens_emitted += 1
            yield from kernel.sleep(SEED_INTERVAL_NS)

    def _new_token(self, depth: int, kind: int) -> bytes:
        self._next_token_id += 1
        return self._pack_token(self._next_token_id, depth, kind,
                                self.system.sim.now)

    def _worker_body(self, task: Task, index: int):
        kernel = task.location.kernel
        sim = self.system.sim
        steal_rng = self.system.cfg.rng_stream(f"steal:{index}")
        while True:
            if self.work_stealing:
                data = yield from self._receive_or_steal(task, index,
                                                         steal_rng)
                if data is None:
                    continue
            else:
                message = yield from task.receive()
                data = message.data
            token_id, depth, kind, _pad, sent_at = _TOKEN.unpack(data)
            self.hop_latency.add(sim.now - sent_at)
            # RETE match against this worker's partition of the network.
            yield from kernel.compute(self.match_cost_ns)
            self.tokens_processed += 1
            self.per_worker_processed[index] += 1
            self.last_activity = sim.now
            if depth >= self.max_depth:
                continue
            # Successor tokens propagate through the distributed network.
            while self.rng.random() < self.branching:
                new_kind = (kind + self.rng.randrange(8)) % 64
                token = self._new_token(depth + 1, new_kind)
                self.tokens_emitted += 1
                yield from task.send(self._route(new_kind), token)
                if self.rng.random() < 0.5:
                    break

    def _receive_or_steal(self, task: Task, index: int, steal_rng):
        """Wait briefly for local work, then try to steal a token.

        Failed steals back off exponentially so drained workers idle
        instead of flooding the network with steal probes.
        """
        sim = self.system.sim
        kernel = task.location.kernel
        failures = self._steal_failures.get(index, 0)
        wait_ns = STEAL_IDLE_NS * min(1 << failures, 64)
        get_event = task.mailbox.get()
        deadline = sim.timeout(wait_ns)
        outcome = yield sim.any_of([get_event, deadline])
        yield from kernel.compute(WAKEUP_NS)
        if get_event in outcome:
            self._steal_failures[index] = 0
            return get_event.value.data
        if not task.mailbox.cancel_read(get_event):
            self._steal_failures[index] = 0
            return get_event.value.data   # raced: the read completed
        victim = steal_rng.randrange(len(self.tasks) - 1)
        if victim >= index:
            victim += 1
        self.steal_attempts += 1
        response = yield from task.request(
            self.tasks[victim].steal_service, b"steal?")
        if response.data:
            self.tokens_stolen += 1
            self._steal_failures[index] = 0
            return response.data
        self._steal_failures[index] = failures + 1
        return None

    def _steal_service_body(self, task: Task, index: int):
        """Serve steal requests by double-reading the worker mailbox."""
        worker_mailbox = self.tasks[index].mailbox
        while True:
            request = yield from task.receive()
            victim_message = worker_mailbox.try_get()
            body = victim_message.data if victim_message is not None \
                else b""
            yield from task.respond(request, body)

    # ------------------------------------------------------------------

    def run(self, seed_count: int, until: int) -> "ProductionSystemApp":
        self.seed_tokens(seed_count)
        self.system.run(until=until)
        return self

    @property
    def tokens_per_second(self) -> float:
        if self.last_activity == 0:
            return 0.0
        return self.tokens_processed / (self.last_activity / 1e9)
