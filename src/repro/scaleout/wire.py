"""Cross-partition envelope codec: a frame becomes bytes exactly once.

Workers exchange envelopes over plain :mod:`multiprocessing` pipes
(see ``docs/SCALEOUT.md``, "Why one transport").  An envelope's body —
the :class:`Packet` or :class:`Reply` a boundary fiber captured —
matters only to the partition that will inject it, so it crosses
everything in between as opaque ``bytes``: :func:`encode_item`
flattens the frame to a tuple of builtins and pickles it once, at
capture; every worker's pending heaps hold the blob unopened;
:func:`decode_item` rebuilds the frame at injection.

Two things in a frame cannot leave their process as they are:

* **Live hub references.**  ``Packet.reverse_path`` and
  ``Reply.info["route"]`` hold ``(Hub, port)`` tuples appended by
  :meth:`Packet.record_hop`; :meth:`Hub.route_reply` pops them with an
  identity check (``hub is not self`` raises).  The flat form carries
  hub *names*; the receiving partition rebinds each name to its own
  ``Hub`` (or, for hubs it does not own, its shared proxy object — those
  entries are only ever popped after the reply crosses into the
  partition that owns them, so the identity check always sees the real
  local object).
* **Zero-copy payload views.**  Fragmented sends slice ``Payload.data``
  as :class:`memoryview`\\ s, which do not pickle; the flat form holds
  ``bytes``.

Encoding only *reads* its argument: the sending partition may still
hold the frame (multicast siblings share ``header`` and ``data``,
transports keep payloads for retransmit).  Decoding builds fresh
objects without running ``Packet.__init__``, and command sequence
numbers cross unchanged, so a reply still finds the CAB's waiter.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable

from ..hardware.frames import HubCommand, Packet, Payload, Reply
from ..hardware.hub_commands import CommandOp

__all__ = ["KIND_PACKET", "KIND_READY", "KIND_REPLY", "decode_item",
           "encode_item", "kind_of"]

#: Envelope kinds exchanged between partitions.
KIND_PACKET = "packet"
KIND_REPLY = "reply"
KIND_READY = "ready"


def kind_of(item: Any) -> str:
    """Classify a fiber-borne item for the envelope header."""
    if isinstance(item, Reply):
        return KIND_REPLY
    if isinstance(item, Packet):
        return KIND_PACKET
    raise TypeError(f"cannot ship {item!r} across a partition boundary")


def _names(path: list) -> list:
    return [(hub.name, port) for hub, port in path]


def encode_item(item: Any) -> bytes:
    """Flatten ``item`` to builtins and pickle it; ``item`` is untouched."""
    if isinstance(item, Packet):
        payload = item.payload
        if payload is not None:
            data = payload.data
            if data is not None and not isinstance(data, bytes):
                data = bytes(data)
            payload = (payload.size, data, payload.header, payload.corrupt)
        flat = (KIND_PACKET, item.origin,
                [(c.op.value, c.hub_id, c.param, c.seq, c.origin, c.arg)
                 for c in item.commands],
                payload, item.close_after, _names(item.reverse_path),
                item.header_bytes, item.framing_error)
    elif isinstance(item, Reply):
        info = item.info
        if info.get("route"):
            info = {**info, "route": _names(info["route"])}
        flat = (KIND_REPLY, item.seq, item.ok, item.hub_id, info,
                item.wire_size)
    else:
        raise TypeError(f"cannot ship {item!r} across a partition boundary")
    return pickle.dumps(flat, pickle.HIGHEST_PROTOCOL)


def decode_item(blob: bytes, resolve: Callable[[str], Any]) -> Any:
    """Rebuild the frame :func:`encode_item` flattened.

    ``resolve`` maps a hub name to the local ``Hub`` (or proxy).
    """
    kind, *fields = pickle.loads(blob)
    if kind == KIND_REPLY:
        seq, ok, hub_id, info, wire_size = fields
        if info.get("route"):
            info["route"] = [(resolve(name), port)
                             for name, port in info["route"]]
        return Reply(seq, ok, hub_id, info, wire_size)
    packet = Packet.__new__(Packet)
    (packet.origin, commands, payload, packet.close_after, path,
     packet.header_bytes, packet.framing_error) = fields
    packet.commands = [HubCommand(CommandOp(op), *rest)
                       for op, *rest in commands]
    packet.payload = None if payload is None else Payload(*payload)
    packet.reverse_path = [(resolve(name), port) for name, port in path]
    return packet
