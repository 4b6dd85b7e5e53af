"""The HUB collective unit: in-network combining (``repro.collectives``).

The paper's HUB already performs multicast in hardware (§4.2.2) and its
central controller serialises one command per 70 ns cycle (§4.1).  This
module extends that controller with the combining primitives the
Ultracomputer line of work put *inside* the switch:

* ``SV_FETCH_ADD`` — atomic fetch-and-add on a named HUB register; the
  controller cycle is the serialisation point, so concurrent adds
  combine at switch rate instead of bouncing a hot location between
  CABs.
* ``SV_BARRIER`` — arrival counting per group; when the last member
  arrives the release is multicast over the reverse paths by
  cycle-stealing replies (§4.2.1), i.e. a hardware multicast release.
* ``SV_REDUCE`` — like the barrier, but each arrival carries an operand
  that is folded into the group's accumulator; every member's release
  reply carries the fully reduced value (an allreduce in one round
  trip).
* ``SV_COLL_RESET`` — supervisor cleanup: fail parked joins cleanly and
  clear the group state and fetch-add register.

Groups span multiple HUBs through a k-ary reduction tree: each command
carries the (small) per-hub tree spec, a non-root HUB that has seen all
its local arrivals forwards one upward ``SV_BARRIER``/``SV_REDUCE`` to
its parent, and the parent's release reply fans back down the tree.
Commands park *outside* the controller pipeline — a waiting barrier
never holds up the issuing port's input queue, so overlapping
collectives and ordinary traffic proceed underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..config import HUB_TRANSFER_NS
from ..errors import HubCommandError
from .frames import HubCommand, Packet, Reply
from .hub_commands import CommandOp

__all__ = ["HubCollectiveUnit", "REDUCE_OPS"]

if TYPE_CHECKING:  # pragma: no cover
    from .hub import Hub
    from .hub_controller import ControllerJob

#: Combining operators the unit implements (integer operands).
REDUCE_OPS: dict[str, Callable[[int, int], int]] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "min": min,
    "max": max,
    "band": lambda a, b: a & b,
    "bor": lambda a, b: a | b,
    "bxor": lambda a, b: a ^ b,
}


@dataclass
class CollectiveState:
    """One group's in-progress barrier or reduction on this HUB."""

    kind: str                  #: "barrier" or "reduce"
    epoch: int
    expected: int
    reduce_op: str = "sum"
    value: Optional[int] = None
    arrived: int = 0
    #: Joins waiting for the release: (command, reverse path) pairs.
    parked: list[tuple[HubCommand, list]] = field(default_factory=list)
    #: True once this (non-root) HUB forwarded its combined join upward.
    upstream_sent: bool = False


class HubCollectiveUnit:
    """Per-HUB state machine executing the collective supervisor ops."""

    def __init__(self, hub: "Hub") -> None:
        self.hub = hub
        self.sim = hub.sim
        #: Fetch-and-add registers: id -> value.
        self.registers: dict[int, int] = {}
        #: Active groups: group id -> state.
        self._groups: dict[int, CollectiveState] = {}

    # ------------------------------------------------------------------
    # controller dispatch (one call per controller cycle)
    # ------------------------------------------------------------------

    def execute(self, job: "ControllerJob") -> None:
        """Execute one collective command at controller-cycle cost.

        The job finishes immediately (``deferred=True``) so the issuing
        port's packet handler is never parked on a waiting barrier; the
        actual answer travels later as a unit-issued reply.
        """
        command = job.command
        reverse_path = list(job.reverse_path)
        job.finish(True, deferred=True)
        op = command.op
        if op is CommandOp.SV_FETCH_ADD:
            self._fetch_add(command, reverse_path)
        elif op is CommandOp.SV_COLL_RESET:
            self._reset_group(command, reverse_path)
        elif op in (CommandOp.SV_BARRIER, CommandOp.SV_REDUCE):
            self._join(command, reverse_path)
        else:  # pragma: no cover - controller routes only collective ops
            raise HubCommandError(f"not a collective command: {command!r}")

    # ------------------------------------------------------------------
    # fetch-and-add
    # ------------------------------------------------------------------

    def _fetch_add(self, command: HubCommand, reverse_path: list) -> None:
        register = command.param
        arg = command.arg or {}
        delta = int(arg.get("delta", 1))
        old = self.registers.get(register, 0)
        self.registers[register] = old + delta
        self.hub.count("collective.fetch_adds")
        self._send_reply(command, True, reverse_path,
                         value=old, register=register)

    # ------------------------------------------------------------------
    # barrier / reduce joins
    # ------------------------------------------------------------------

    def _join(self, command: HubCommand, reverse_path: list) -> None:
        kind = "barrier" if command.op is CommandOp.SV_BARRIER else "reduce"
        group = command.param
        arg = command.arg or {}
        tree = arg.get("tree") or {}
        spec = tree.get(self.hub.name)
        if spec is None:
            self.hub.count("collective.rejected")
            self._send_reply(command, False, reverse_path, coll=group,
                             reason=f"no tree entry for {self.hub.name}")
            return
        epoch = int(arg.get("epoch", 0))
        state = self._groups.get(group)
        if state is None:
            state = CollectiveState(kind=kind, epoch=epoch,
                                    expected=int(spec["expected"]),
                                    reduce_op=str(arg.get("op", "sum")))
            self._groups[group] = state
        elif state.kind != kind or state.epoch != epoch:
            # A straggler from a previous epoch, or two different
            # collectives racing on one group id: refuse cleanly rather
            # than corrupt the count.
            self.hub.count("collective.stale")
            self._send_reply(command, False, reverse_path, coll=group,
                             epoch=epoch, reason="group busy "
                             f"({state.kind} epoch {state.epoch} active)")
            return
        state.arrived += 1
        if kind == "reduce":
            operand = int(arg.get("value", 0))
            fold = REDUCE_OPS.get(state.reduce_op)
            if fold is None:
                self.hub.count("collective.rejected")
                self._send_reply(command, False, reverse_path, coll=group,
                                 epoch=epoch, reason="unknown reduce op "
                                 f"{state.reduce_op!r}")
                return
            state.value = operand if state.value is None \
                else fold(state.value, operand)
        state.parked.append((command, reverse_path))
        self.hub.count(f"collective.{kind}_joins")
        if state.arrived < state.expected:
            return
        parent = spec.get("parent")
        if parent is None:
            # This HUB roots the tree: release everyone parked below.
            self._complete(group, state, ok=True, value=state.value)
        elif not state.upstream_sent:
            self._forward_up(group, state, spec, tree)

    def _forward_up(self, group: int, state: CollectiveState,
                    spec: dict[str, Any], tree: dict[str, Any]) -> None:
        """All local members arrived: join the parent HUB's group.

        The upward command is HUB-originated; its reply comes back to
        this HUB with an exhausted route and is dispatched to
        :meth:`on_reply`, which releases everything parked here.
        """
        state.upstream_sent = True
        op = CommandOp.SV_BARRIER if state.kind == "barrier" \
            else CommandOp.SV_REDUCE
        command = HubCommand(op, spec["parent_hub"], group,
                             origin=f"hub:{self.hub.name}")
        command.arg = {"epoch": state.epoch, "op": state.reduce_op,
                       "value": state.value, "tree": tree}
        packet = Packet(command.origin, commands=[command])
        port = self.hub.ports[spec["parent"]]
        self.hub.count("collective.upstream")
        self.sim.process(self._send_upstream(port, packet),
                         name=f"{self.hub.name}.coll-up:{group}")

    def _send_upstream(self, port, packet: Packet):
        # One crossbar transfer to the output register, then the fiber
        # serialises the command bytes.
        yield HUB_TRANSFER_NS
        if port.out_fiber is None:  # pragma: no cover - unwired topology
            raise HubCommandError(
                f"{self.hub.name}.p{port.index} is unwired; cannot "
                f"forward a collective upward")
        yield port.out_fiber.send(packet)

    def on_reply(self, reply: Reply) -> None:
        """A parent HUB answered our upward join: fan the release down."""
        group = reply.info.get("coll")
        state = self._groups.get(group)
        if state is None or state.epoch != reply.info.get("epoch"):
            self.hub.count("collective.stale")
            return
        self._complete(group, state, ok=reply.ok,
                       value=reply.info.get("value"),
                       reason=reply.info.get("reason"))

    # ------------------------------------------------------------------
    # completion and cleanup
    # ------------------------------------------------------------------

    def _complete(self, group: int, state: CollectiveState, ok: bool,
                  value: Optional[int] = None,
                  reason: Optional[str] = None) -> None:
        self._groups.pop(group, None)
        for command, reverse_path in state.parked:
            info: dict[str, Any] = {"coll": group, "epoch": state.epoch,
                                    "value": value}
            if reason is not None:
                info["reason"] = reason
            self._send_reply(command, ok, reverse_path, **info)
        self.hub.count("collective.releases", len(state.parked))
        if ok:
            self.hub.count(f"collective.{state.kind}_completions")

    def _reset_group(self, command: HubCommand, reverse_path: list) -> None:
        group = command.param
        state = self._groups.pop(group, None)
        parked = len(state.parked) if state is not None else 0
        if state is not None:
            for parked_cmd, parked_path in state.parked:
                self._send_reply(parked_cmd, False, parked_path, coll=group,
                                 epoch=state.epoch, reason="group reset")
        self.registers.pop(group, None)
        self.hub.count("collective.resets")
        self._send_reply(command, True, reverse_path,
                         coll=group, cleared=parked)

    def reset(self) -> None:
        """Supervisor HUB reset (``SV_RESET_HUB``): drop all state.

        Parked joins fail cleanly so waiting CABs see an error instead
        of a hang.
        """
        for group, state in list(self._groups.items()):
            self._complete(group, state, ok=False, reason="hub reset")
        self._groups.clear()
        self.registers.clear()

    # ------------------------------------------------------------------

    def _send_reply(self, command: HubCommand, ok: bool,
                    reverse_path: list, **info: Any) -> None:
        """Answer a collective command over its recorded reverse path."""
        reply = Reply(seq=command.seq, ok=ok, hub_id=self.hub.name,
                      info=dict(info))
        reply.info["route"] = list(reverse_path)
        self.hub.count("replies_sent")
        self.hub.route_reply(reply)

    def status(self) -> dict[str, Any]:
        """Snapshot for ``SV_READ_STATUS`` / the instrumentation board."""
        return {
            "registers": dict(self.registers),
            "groups": {
                group: {"kind": state.kind, "epoch": state.epoch,
                        "arrived": state.arrived,
                        "expected": state.expected,
                        "parked": len(state.parked)}
                for group, state in sorted(self._groups.items())
            },
        }
