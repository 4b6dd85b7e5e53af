"""The resilience manager: health monitoring wired to self-healing.

One :class:`ResilienceManager` per system runs three kinds of monitors,
all feeding a single :class:`~repro.resilience.detector.FailureDetector`:

* **Link probes** — for every inter-HUB fiber pair a designated prober
  CAB (the first CAB, by name, attached to either end) periodically runs
  :meth:`~repro.datalink.protocol.Datalink.probe_link`, which crosses
  exactly that fiber with an ``ECHO`` and returns over its reverse
  fiber.  A confirmed-dead link is removed from the routing tables
  (:meth:`~repro.datalink.routing.Router.mark_link_down`) so traffic
  immediately reroutes over surviving parallel links or alternate HUB
  paths; probe-confirmed recovery reinstates it
  (:meth:`~repro.datalink.routing.Router.mark_link_up`).
* **CAB heartbeats** — every CAB sends datagram heartbeats to the next
  ``HEARTBEAT_FANOUT`` CABs on the sorted name ring; responders echo
  them back.  A confirmed-dead CAB force-opens the circuit breakers
  toward it on every other CAB (reliable sends fail fast instead of
  burning retry budgets), and recovery closes them again — the paper's
  goal 4 supervisor "recovery from hardware failures" (§4).
* **Uplink probes** — each CAB asks its own HUB for its port's ready
  bit (``STATUS_READY``), detecting a dead first-hop fiber pair.

Detection and repair times are recorded per event (`time_to_detect_ns`,
`outage_ns`) and aggregated by :meth:`ResilienceManager.summary`.  All
probe phases are staggered from seeded RNG streams and every data
structure is iterated in sorted order, so two same-seed runs produce
byte-identical detector timelines
(:meth:`ResilienceManager.transition_text`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from ..config import (CAB_DEAD_AFTER, CAB_RECOVER_AFTER, CAB_SUSPECT_AFTER,
                      HEARTBEAT_BYTES, HEARTBEAT_FANOUT, HEARTBEAT_INTERVAL_NS,
                      LINK_DEAD_AFTER, LINK_PROBE_INTERVAL_NS,
                      LINK_PROBE_TIMEOUT_NS, LINK_RECOVER_AFTER,
                      LINK_SUSPECT_AFTER, UPLINK_PROBE_INTERVAL_NS)
from ..errors import DatalinkError, RouteError, TopologyError, TransportError
from ..hardware.hub_commands import CommandOp
from .detector import FailureDetector, TargetState

__all__ = ["HEARTBEAT_MAILBOX", "HEARTBEAT_REPLY_MAILBOX",
           "ResilienceManager"]

#: Mailbox receiving heartbeat datagrams on every CAB.
HEARTBEAT_MAILBOX = "res-hb"
#: Mailbox receiving heartbeat responses on every CAB.
HEARTBEAT_REPLY_MAILBOX = "res-hb-rsp"

#: Errors a monitoring send may hit while the fabric is degraded; they
#: count as probe failures instead of crashing the monitor thread.
_SEND_ERRORS = (DatalinkError, RouteError, TransportError)


@dataclass
class _LinkWatch:
    """One monitored inter-HUB fiber pair and how to probe/heal it."""

    target: str
    #: Probe orientation: the prober CAB is attached to ``probe_hub_a``.
    probe_hub_a: object
    probe_port_a: int
    probe_hub_b: object
    probe_port_b: int
    prober: object
    #: Canonical orientation (lexically smaller hub first) for the
    #: router's mark_link_down/mark_link_up bookkeeping.
    canon_a: str
    canon_port_a: int
    canon_b: str
    canon_port_b: int


class ResilienceManager:
    """Failure detection and self-healing for one built system."""

    def __init__(self, system) -> None:
        self.system = system
        self.sim = system.sim
        self.router = system.router
        self.detector = FailureDetector(lambda: self.sim.now)
        self.detector.on_transition.append(self._on_transition)
        self.counters: dict[str, int] = defaultdict(int)
        #: Healing log: one dict per detection/repair action, in order.
        self.events: list[dict] = []
        self._link_watches: dict[str, _LinkWatch] = {}
        #: (observer CAB, peer CAB) -> heartbeat seqs outstanding.
        self._hb_pending: dict[tuple[str, str], set[int]] = {}
        self._hb_pairs: list[tuple[str, str]] = []
        self._down_since: dict[str, int] = {}
        self._started = False
        self._plan_link_watches()
        self._plan_heartbeats()

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def _plan_link_watches(self) -> None:
        by_hub: dict[str, list] = {}
        for name in sorted(self.system.cabs):
            stack = self.system.cabs[name]
            hub = stack.board.hub_port.hub
            by_hub.setdefault(hub.name, []).append(stack)
        for hub_a in self.router.hub_names:
            for hub_b in self.router.hub_names:
                if hub_b <= hub_a:
                    continue
                for port_a, port_b in self.router.parallel_links(hub_a,
                                                                 hub_b):
                    target = (f"link:{hub_a}.p{port_a}"
                              f"<->{hub_b}.p{port_b}")
                    if by_hub.get(hub_a):
                        prober = by_hub[hub_a][0]
                        watch = _LinkWatch(
                            target, self.system.hubs[hub_a], port_a,
                            self.system.hubs[hub_b], port_b, prober,
                            hub_a, port_a, hub_b, port_b)
                    elif by_hub.get(hub_b):
                        prober = by_hub[hub_b][0]
                        watch = _LinkWatch(
                            target, self.system.hubs[hub_b], port_b,
                            self.system.hubs[hub_a], port_a, prober,
                            hub_a, port_a, hub_b, port_b)
                    else:
                        # No CAB on either end can source probes.
                        self.counters["links_unmonitored"] += 1
                        continue
                    self._link_watches[target] = watch

    def _plan_heartbeats(self) -> None:
        names = sorted(self.system.cabs)
        if len(names) < 2:
            return
        fanout = min(HEARTBEAT_FANOUT, len(names) - 1)
        for index, observer in enumerate(names):
            for step in range(1, fanout + 1):
                peer = names[(index + step) % len(names)]
                self._hb_pairs.append((observer, peer))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Register detector targets and spawn every monitor thread."""
        if self._started:
            raise TopologyError("resilience manager already started")
        self._started = True
        for target in sorted(self._link_watches):
            watch = self._link_watches[target]
            self.detector.watch(target, "link",
                                suspect_after=LINK_SUSPECT_AFTER,
                                dead_after=LINK_DEAD_AFTER,
                                recover_after=LINK_RECOVER_AFTER)
            watch.prober.spawn(
                self._link_probe_loop(watch, self._stagger(
                    target, LINK_PROBE_INTERVAL_NS)),
                name=f"res:probe:{target}")
        if self._hb_pairs:
            for name in sorted(self.system.cabs):
                stack = self.system.cabs[name]
                stack.create_mailbox(HEARTBEAT_MAILBOX, capacity=16)
                stack.create_mailbox(HEARTBEAT_REPLY_MAILBOX, capacity=16)
                stack.spawn(self._responder_loop(stack), name="res:hb-rsp")
                stack.spawn(self._collector_loop(stack), name="res:hb-rcv")
        for observer, peer in self._hb_pairs:
            self.detector.watch(f"cab:{peer}", "cab",
                                suspect_after=CAB_SUSPECT_AFTER,
                                dead_after=CAB_DEAD_AFTER,
                                recover_after=CAB_RECOVER_AFTER)
            self._hb_pending[(observer, peer)] = set()
            stack = self.system.cabs[observer]
            stack.spawn(
                self._heartbeat_loop(stack, peer, self._stagger(
                    f"hb:{observer}->{peer}", HEARTBEAT_INTERVAL_NS)),
                name=f"res:hb:{peer}")
        for name in sorted(self.system.cabs):
            stack = self.system.cabs[name]
            target = f"uplink:{name}"
            self.detector.watch(target, "uplink",
                                suspect_after=LINK_SUSPECT_AFTER,
                                dead_after=LINK_DEAD_AFTER,
                                recover_after=LINK_RECOVER_AFTER)
            stack.spawn(
                self._uplink_probe_loop(stack, target, self._stagger(
                    target, UPLINK_PROBE_INTERVAL_NS)),
                name="res:uplink")

    def _stagger(self, name: str, interval_ns: int) -> int:
        """A deterministic start offset so probes do not synchronise."""
        return self.system.cfg.rng_stream(
            f"res:{name}").randrange(interval_ns)

    # ------------------------------------------------------------------
    # monitor threads (generators on CAB kernels)
    # ------------------------------------------------------------------

    def _link_probe_loop(self, watch: _LinkWatch, offset_ns: int):
        kernel = watch.prober.kernel
        datalink = watch.prober.datalink
        yield from kernel.sleep(offset_ns)
        while True:
            try:
                rtt = yield from datalink.probe_link(
                    watch.probe_hub_a, watch.probe_port_a,
                    watch.probe_hub_b, watch.probe_port_b,
                    timeout_ns=LINK_PROBE_TIMEOUT_NS)
            except _SEND_ERRORS:
                rtt = None
            self.counters["link_probes"] += 1
            if rtt is None:
                self.counters["link_probe_failures"] += 1
                self.detector.report_failure(watch.target)
            else:
                self.detector.report_success(watch.target)
            yield from kernel.sleep(LINK_PROBE_INTERVAL_NS)

    def _heartbeat_loop(self, stack, peer: str, offset_ns: int):
        kernel = stack.kernel
        target = f"cab:{peer}"
        pending = self._hb_pending[(stack.name, peer)]
        seq = 0
        yield from kernel.sleep(offset_ns)
        while True:
            seq += 1
            pending.add(seq)
            self.counters["heartbeats_sent"] += 1
            # Fire-and-forget: a send wedged in open-retry toward a
            # stalled peer must not stop the timeout clock below, or a
            # wedged CAB would throttle its own detection to the
            # datalink's (much slower) retry budget.
            stack.spawn(self._heartbeat_send(stack, peer, seq),
                        name=f"res:hb-tx:{peer}")
            yield from kernel.sleep(HEARTBEAT_INTERVAL_NS)
            if seq in pending:
                # Unanswered for a whole period: count it missed.
                pending.remove(seq)
                self.counters["heartbeat_timeouts"] += 1
                self._report_heartbeat_miss(target)

    def _report_heartbeat_miss(self, target: str) -> None:
        """Heartbeat evidence, discounted while the fabric is in question.

        A dead inter-HUB link black-holes every heartbeat that crosses
        it, and a CAB's observers usually all sit on the far side — so
        during link detection the aggregated misses would confirm a
        *peer* death in under one blackout.  While any link watch is
        not settled alive, misses are counted but not charged to the
        peer; CAB verdicts resume once the link story settles.
        """
        if any(ts.kind == "link" and ts.state != "alive"
               for ts in self.detector.targets.values()):
            self.counters["heartbeats_discounted"] += 1
            return
        self.detector.report_failure(target)

    def _heartbeat_send(self, stack, peer: str, seq: int):
        pending = self._hb_pending[(stack.name, peer)]
        try:
            yield from stack.transport.datagram.send(
                peer, HEARTBEAT_MAILBOX,
                size=HEARTBEAT_BYTES, kind="heartbeat",
                meta={"hb_seq": seq, "hb_src": stack.name})
        except _SEND_ERRORS:
            # No route / dead datalink: immediate failure evidence —
            # unless the timeout clock already counted this beat.
            self.counters["heartbeat_errors"] += 1
            if seq in pending:
                pending.remove(seq)
                self._report_heartbeat_miss(f"cab:{peer}")

    def _responder_loop(self, stack):
        mailbox = stack.transport.mailbox(HEARTBEAT_MAILBOX)
        kernel = stack.kernel
        while True:
            message = yield from kernel.wait(mailbox.get())
            src = message.meta.get("hb_src")
            if not src or src == stack.name:
                continue
            self.counters["heartbeats_answered"] += 1
            try:
                yield from stack.transport.datagram.send(
                    src, HEARTBEAT_REPLY_MAILBOX,
                    size=HEARTBEAT_BYTES, kind="heartbeat",
                    meta={"hb_seq": message.meta.get("hb_seq"),
                          "hb_peer": stack.name})
            except _SEND_ERRORS:
                self.counters["heartbeat_errors"] += 1

    def _collector_loop(self, stack):
        mailbox = stack.transport.mailbox(HEARTBEAT_REPLY_MAILBOX)
        kernel = stack.kernel
        while True:
            message = yield from kernel.wait(mailbox.get())
            peer = message.meta.get("hb_peer")
            seq = message.meta.get("hb_seq")
            pending = self._hb_pending.get((stack.name, peer))
            if pending is None:
                continue
            pending.discard(seq)
            target = f"cab:{peer}"
            if target in self.detector.targets:
                # Late responses (seq already timed out) still count:
                # they are exactly how a dead peer's recovery shows up.
                self.detector.report_success(target)

    def _uplink_probe_loop(self, stack, target: str, offset_ns: int):
        kernel = stack.kernel
        port_index = stack.board.hub_port.index
        yield from kernel.sleep(offset_ns)
        while True:
            try:
                reply = yield from stack.datalink.query_first_hop(
                    CommandOp.STATUS_READY, port_index,
                    timeout_ns=LINK_PROBE_TIMEOUT_NS)
                ok = reply.ok
            except _SEND_ERRORS:
                ok = False
            self.counters["uplink_probes"] += 1
            if ok:
                self.detector.report_success(target)
            else:
                self.detector.report_failure(target)
            yield from kernel.sleep(UPLINK_PROBE_INTERVAL_NS)

    # ------------------------------------------------------------------
    # healing (detector transition callback)
    # ------------------------------------------------------------------

    def _on_transition(self, ts: TargetState, old: str, new: str,
                       now: int) -> None:
        if ts.kind == "link":
            self._heal_link(ts, old, new, now)
        elif ts.kind == "cab":
            self._heal_cab(ts, old, new, now)
        elif ts.kind == "uplink":
            if new == "dead":
                self.counters["uplink_deaths"] += 1
                self._record(ts, "uplink_dead", now)
            elif new == "alive" and old in ("dead", "recovering"):
                self.counters["uplink_revivals"] += 1
                self._record(ts, "uplink_restored", now)

    def _heal_link(self, ts: TargetState, old: str, new: str,
                   now: int) -> None:
        watch = self._link_watches[ts.target]
        if new == "dead":
            self.counters["link_deaths"] += 1
            self._down_since[ts.target] = now
            removed = self.router.mark_link_down(
                watch.canon_a, watch.canon_b, watch.canon_port_a)
            if removed:
                self.counters["reroutes"] += 1
            self._record(ts, "link_dead", now, links_removed=removed)
        elif new == "alive" and old in ("dead", "recovering"):
            down_at = self._down_since.pop(ts.target, None)
            restored = self.router.mark_link_up(
                watch.canon_a, watch.canon_b,
                watch.canon_port_a, watch.canon_port_b)
            if restored:
                self.counters["reinstatements"] += 1
            self._record(ts, "link_restored", now,
                         outage_ns=None if down_at is None
                         else now - down_at)

    def _heal_cab(self, ts: TargetState, old: str, new: str,
                  now: int) -> None:
        peer = ts.target.split(":", 1)[1]
        if new == "dead":
            self.counters["cab_deaths"] += 1
            self._down_since[ts.target] = now
            for name in sorted(self.system.cabs):
                if name != peer:
                    self.system.cabs[name].transport \
                        .breaker_for(peer).mark_dead()
            self._record(ts, "cab_dead", now)
        elif new == "alive" and old in ("dead", "recovering"):
            down_at = self._down_since.pop(ts.target, None)
            for name in sorted(self.system.cabs):
                if name != peer:
                    self.system.cabs[name].transport \
                        .breaker_for(peer).mark_alive()
            self.counters["cab_revivals"] += 1
            self._record(ts, "cab_restored", now,
                         outage_ns=None if down_at is None
                         else now - down_at)

    def _record(self, ts: TargetState, event: str, now: int,
                **extra) -> None:
        entry = {"time_ns": now, "target": ts.target, "event": event}
        if event.endswith("_dead") and ts.first_failure_ns is not None:
            entry["time_to_detect_ns"] = now - ts.first_failure_ns
        entry.update(extra)
        self.events.append(entry)
        self.system.tracer.record(
            "resilience", f"resilience.{event}", target=ts.target)

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------

    def transition_text(self) -> str:
        """The detector timeline (canonical, for determinism checks)."""
        return self.detector.transition_text()

    def summary(self) -> dict:
        """Aggregate detection/repair statistics for reports and CLI."""
        detects = [event["time_to_detect_ns"] for event in self.events
                   if "time_to_detect_ns" in event]
        outages = [event["outage_ns"] for event in self.events
                   if event.get("outage_ns") is not None]
        return {
            "targets": {name: state.state for name, state in
                        sorted(self.detector.targets.items())},
            "transitions": len(self.detector.transitions),
            "counters": dict(sorted(self.counters.items())),
            "events": list(self.events),
            "mean_time_to_detect_ns":
                sum(detects) / len(detects) if detects else None,
            "mean_time_to_repair_ns":
                sum(outages) / len(outages) if outages else None,
        }

    def _dead_of_kind(self, kind: str) -> int:
        return sum(1 for ts in self.detector.targets.values()
                   if ts.kind == kind and ts.state == "dead")

    def register_metrics(self, sampler) -> None:
        """Expose ``resilience.*`` gauges/counters as sampled series."""
        sampler.add_probe(
            "resilience.links_dead",
            lambda: float(self._dead_of_kind("link")),
            description="inter-HUB links currently confirmed dead",
            unit="links")
        sampler.add_probe(
            "resilience.cabs_dead",
            lambda: float(self._dead_of_kind("cab")),
            description="CABs currently confirmed dead", unit="cabs")
        sampler.add_probe(
            "resilience.transitions",
            lambda: float(len(self.detector.transitions)),
            description="detector state transitions so far", unit="events")
        for key, unit, text in (
                ("link_probes", "probes", "link probes issued"),
                ("heartbeats_sent", "messages", "heartbeats sent"),
                ("heartbeat_timeouts", "events", "heartbeats unanswered"),
                ("reroutes", "events", "links removed from routing"),
                ("reinstatements", "events", "links restored to routing")):
            sampler.add_probe(
                f"resilience.{key}",
                lambda key=key: float(self.counters.get(key, 0)),
                description=f"cumulative {text}", unit=unit)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ResilienceManager targets={len(self.detector.targets)} "
                f"transitions={len(self.detector.transitions)}>")
