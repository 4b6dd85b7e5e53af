"""The Nectar HUB: crossbar, ports, controller, and command semantics (§4).

A HUB establishes connections and passes messages between its input and
output fiber lines.  Simple commands execute in one controller cycle; CABs
compose them into datalink protocols (circuit switching, packet switching,
multicast — §4.2).
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Optional

from ..config import FiberConfig, HubConfig
from ..errors import HubCommandError
from ..sim import Simulator
from .crossbar import Crossbar
from .frames import HubCommand, Reply
from .hub_collectives import HubCollectiveUnit
from .hub_commands import CommandOp
from .hub_controller import HubController
from .hub_port import HubPort

__all__ = ["Hub"]

if TYPE_CHECKING:  # pragma: no cover
    pass

HARDWARE_VERSION = "nectar-hub-prototype-1989"


class Hub:
    """A crossbar switch with a datalink protocol in hardware."""

    def __init__(self, sim: Simulator, name: str, cfg: HubConfig,
                 fiber_cfg: Optional[FiberConfig] = None,
                 tracer: Optional[Any] = None) -> None:
        self.sim = sim
        self.name = name
        self.cfg = cfg
        self.fiber_cfg = fiber_cfg or FiberConfig()
        self.tracer = tracer
        self.crossbar = Crossbar(cfg.num_ports)
        # Array-backed per-port wire state.  The ready bit and queue depth
        # are touched on every hop, so the hot sites (packet delivery,
        # output-register claim, controller test-opens) do index stores/
        # loads on these lists instead of attribute chases through the
        # port objects.  These arrays are the only view: :class:`HubPort`
        # keeps no copy of them.
        self.ready_bits: list[bool] = [True] * cfg.num_ports
        self.queue_depths: list[int] = [0] * cfg.num_ports
        self.max_queue_depths: list[int] = [0] * cfg.num_ports
        self.ports = [HubPort(self, index) for index in range(cfg.num_ports)]
        self.controller = HubController(self)
        #: In-network collective engine (fetch-add/barrier/reduce).
        self.collectives = HubCollectiveUnit(self)
        #: Lock table: output port -> origin CAB holding the lock.
        self.locks: dict[int, str] = {}
        self.counters: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        """Bump a counter (and trace it when tracing is actually on).

        This runs for every command, hop, and drop, so the disabled-tracing
        case must cost one attribute check here — not a ``Tracer.record``
        call that immediately returns.
        """
        self.counters[key] += amount
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.record(self.name, key)

    #: Event counters exported as sampled time series when a sampler is
    #: attached; the other keys are read from ``counters`` directly.
    OBSERVED_COUNTERS = ("commands_executed", "packets_forwarded", "closes",
                         "replies_sent", "framing_errors", "stray_packets",
                         "opens_abandoned", "collective.fetch_adds",
                         "collective.barrier_joins", "collective.reduce_joins",
                         "collective.releases", "collective.stale")

    def register_metrics(self, sampler) -> None:
        """Register this HUB with the observability layer (§4.1).

        Per-HUB counter series plus every port's queue-depth/ready/
        utilization probes; the controller registers its own command,
        queue-depth, and watchdog series so Perfetto shows switching
        activity over time.
        """
        for key in self.OBSERVED_COUNTERS:
            sampler.add_probe(
                f"{self.name}.{key}",
                lambda key=key: float(self.counters.get(key, 0)),
                description=f"cumulative HUB counter {key!r}",
                unit="events")
        self.controller.register_metrics(sampler)
        for port in self.ports:
            port.register_metrics(sampler)

    def port(self, index: int) -> HubPort:
        if not 0 <= index < self.cfg.num_ports:
            raise HubCommandError(f"{self.name} has no port {index}")
        return self.ports[index]

    def close_output(self, out_port: int) -> Optional[int]:
        """Disconnect whatever feeds ``out_port`` and wake open waiters."""
        owner = self.crossbar.disconnect(out_port)
        if owner is not None:
            self.count("closes")
            self.notify_output_freed(out_port)
        return owner

    def notify_output_freed(self, out_port: int) -> None:
        """An output register freed; opens waiting on it may proceed."""
        self.controller.notify(out_port)

    def notify_ready_changed(self, port_index: int) -> None:
        """A port's ready bit rose; test-opens targeting it may proceed."""
        self.controller.notify(port_index)

    # ------------------------------------------------------------------
    # command execution
    # ------------------------------------------------------------------

    def execute_command(self, command: HubCommand, in_port: int,
                        reverse_path: list):
        """Execute one command arriving on ``in_port`` (a generator).

        Returns a result dict; sends a reply to the origin if the command
        asks for one.
        """
        if command.hub_id not in (self.name, "*"):
            raise HubCommandError(
                f"{self.name} asked to execute {command!r} for "
                f"{command.hub_id}")
        self.count("commands_executed")
        if command.op.needs_controller:
            result = yield self.controller.submit(command, in_port,
                                                  reverse_path)
        else:
            # "Localized" commands execute inside the I/O port in a cycle.
            yield self.cfg.cycle_ns
            result = self._execute_local(command, in_port)
        if command.op.wants_reply:
            self._reply(command, result, reverse_path)
        return result

    def _execute_local(self, command: HubCommand,
                       in_port: int) -> dict[str, Any]:
        op = command.op
        param = command.param
        if op.is_supervisor:
            return self._execute_supervisor(command, in_port)
        if op is CommandOp.CLOSE:
            owner = self.close_output(self._checked(param))
            return {"ok": True, "was_owned_by": owner}
        if op is CommandOp.CLOSE_INPUT:
            freed = self.crossbar.disconnect_input(self._checked(param))
            for out_port in freed:
                self.count("closes")
                self.notify_output_freed(out_port)
            return {"ok": True, "closed": freed}
        if op is CommandOp.STATUS_OUTPUT:
            return {"ok": True,
                    "owner": self.crossbar.owner_of(self._checked(param))}
        if op is CommandOp.STATUS_INPUT:
            outputs = self.crossbar.outputs_of(self._checked(param))
            return {"ok": True, "outputs": sorted(outputs)}
        if op is CommandOp.STATUS_READY:
            return {"ok": True,
                    "ready": self.ready_bits[self._checked(param)]}
        if op is CommandOp.STATUS_LOCK:
            return {"ok": True, "locked_by": self.locks.get(param)}
        if op is CommandOp.STATUS_TABLE:
            return {"ok": True, "table": self.crossbar.snapshot(),
                    "locks": dict(self.locks)}
        if op is CommandOp.SET_READY:
            self.ready_bits[self._checked(param)] = True
            self.notify_ready_changed(param)
            return {"ok": True}
        if op is CommandOp.CLEAR_READY:
            self.ready_bits[self._checked(param)] = False
            return {"ok": True}
        if op is CommandOp.NOP:
            return {"ok": True}
        if op is CommandOp.ECHO:
            return {"ok": True, "echo": param}
        raise HubCommandError(f"unhandled command {command!r}")

    def _execute_supervisor(self, command: HubCommand,
                            in_port: int) -> dict[str, Any]:
        op = command.op
        param = command.param
        if op is CommandOp.SV_RESET_HUB:
            self.crossbar.reset()
            self.locks.clear()
            self.controller.reset()
            self.collectives.reset()
            for port in self.ports:
                port.reset()
            for out_port in range(self.cfg.num_ports):
                self.notify_output_freed(out_port)
            return {"ok": True}
        if op is CommandOp.SV_RESET_PORT:
            self.ports[self._checked(param)].reset()
            self.notify_ready_changed(param)
            return {"ok": True}
        if op is CommandOp.SV_ENABLE_PORT:
            self.ports[self._checked(param)].enabled = True
            return {"ok": True}
        if op is CommandOp.SV_DISABLE_PORT:
            port = self.ports[self._checked(param)]
            port.enabled = False
            self.close_output(param)
            return {"ok": True}
        if op is CommandOp.SV_LOOPBACK_ON:
            self.ports[self._checked(param)].loopback = True
            return {"ok": True}
        if op is CommandOp.SV_LOOPBACK_OFF:
            self.ports[self._checked(param)].loopback = False
            return {"ok": True}
        if op is CommandOp.SV_READ_COUNTERS:
            return {"ok": True, "counters": dict(self.counters),
                    "controller_commands": self.controller.commands_executed}
        if op is CommandOp.SV_CLEAR_COUNTERS:
            self.counters.clear()
            return {"ok": True}
        if op is CommandOp.SV_SELFTEST:
            self.crossbar.check_invariants()
            return {"ok": True, "selftest": "pass"}
        if op is CommandOp.SV_READ_VERSION:
            return {"ok": True, "version": HARDWARE_VERSION}
        if op is CommandOp.SV_FREEZE:
            self.controller.frozen = True
            return {"ok": True}
        if op is CommandOp.SV_UNFREEZE:
            self.controller.frozen = False
            return {"ok": True}
        if op is CommandOp.SV_SET_TIMEOUT:
            self.controller.retry_timeout_cycles = max(0, param)
            return {"ok": True}
        if op is CommandOp.SV_READ_STATUS:
            return {"ok": True, "frozen": self.controller.frozen,
                    "enabled": [p.enabled for p in self.ports]}
        raise HubCommandError(f"unhandled supervisor command {command!r}")

    def _checked(self, param: int) -> int:
        if not 0 <= param < self.cfg.num_ports:
            raise HubCommandError(f"{self.name}: bad port parameter {param}")
        return param

    # ------------------------------------------------------------------
    # replies (§4.2.1: reverse-path, cycle-stealing, never blocked)
    # ------------------------------------------------------------------

    def _reply(self, command: HubCommand, result: dict[str, Any],
               reverse_path: list) -> None:
        info = {key: value for key, value in result.items() if key != "ok"}
        reply = Reply(seq=command.seq, ok=bool(result.get("ok")),
                      hub_id=self.name, info=info)
        reply.info["route"] = list(reverse_path)
        self.count("replies_sent")
        self.route_reply(reply)

    def route_reply(self, reply: Reply) -> None:
        """Move a reply one hop backwards along its recorded route."""
        route = reply.info.get("route")
        if not route:
            if "coll" in reply.info:
                # A reply to a HUB-originated upward collective join: the
                # route ends here, and the collective unit fans the
                # release down to everything parked locally.
                self.collectives.on_reply(reply)
                return
            raise HubCommandError(f"reply {reply.seq} has no route at "
                                  f"{self.name}")
        hub, in_port = route.pop()
        if hub is not self:
            raise HubCommandError(
                f"reply routed to {self.name} but expected {hub.name}")
        port = self.ports[in_port]
        if port.out_fiber is None:
            raise HubCommandError(
                f"{self.name}.p{in_port} is unwired; cannot return reply")
        # One crossbar transfer latency, then cycle-steal onto the fiber.
        self.sim.call_in(self.cfg.transfer_ns,
                         lambda: port.out_fiber.send_priority(reply))

    # ------------------------------------------------------------------

    def status_snapshot(self) -> dict[str, Any]:
        """Full status table, as the instrumentation board would dump it."""
        return {
            "name": self.name,
            "connections": self.crossbar.snapshot(),
            "locks": dict(self.locks),
            "ports": [port.status() for port in self.ports],
            "counters": dict(self.counters),
            "collectives": self.collectives.status(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Hub {self.name} ports={self.cfg.num_ports} "
                f"connections={self.crossbar.connection_count}>")
