"""Cross-partition envelope codec: frames safe to leave their process.

The coordinator and its workers exchange envelopes over plain
:mod:`multiprocessing` pipes (see ``docs/SCALEOUT.md``, "Why one
transport"); this module only makes the items inside them picklable.

Packets and replies carry two things a :mod:`multiprocessing` pipe
cannot ship as-is:

* **Live hub references.**  ``Packet.reverse_path`` and
  ``Reply.info["route"]`` hold ``(Hub, port)`` tuples appended by
  :meth:`Packet.record_hop`; :meth:`Hub.route_reply` pops them with an
  identity check (``hub is not self`` raises).  Crossing a partition
  boundary, hubs are encoded as names; the receiving partition rebinds
  each name to its own ``Hub`` (or, for hubs it does not own, its
  shared proxy object — those entries are only ever popped after the
  reply crosses into the partition that owns them, so the identity
  check always sees the real local object).
* **Zero-copy payload views.**  Fragmented sends slice ``Payload.data``
  as :class:`memoryview`\\ s, which do not pickle; the boundary
  materializes them to ``bytes``.

Encoding happens at capture time (the item has permanently left the
sending partition, so in-place mutation is safe); decoding happens at
injection time in the receiving partition.

This split is also what makes the supervisor's window-log replay
(:mod:`repro.scaleout.supervisor`) sound: envelopes held in the
coordinator's per-partition logs stay in *encoded* form — names and
bytes, no live references — and decoding mutates only the receiving
worker's own unpickled copy, so re-sending a logged envelope to a
respawned worker is byte-for-byte identical to the first delivery.
"""

from __future__ import annotations

from typing import Any, Callable

from ..hardware.frames import Packet, Reply

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


def _encode_path(path: list) -> list:
    return [(hub if isinstance(hub, str) else hub.name, port)
            for hub, port in path]


def _decode_path(path: list, resolve: Callable[[str], Any]) -> list:
    return [(resolve(name), port) for name, port in path]


def encode_item(item: Any) -> Any:
    """Strip live references so ``item`` pickles; returns ``item``."""
    if isinstance(item, Packet):
        item.reverse_path = _encode_path(item.reverse_path)
        payload = item.payload
        if payload is not None and payload.data is not None \
                and not isinstance(payload.data, bytes):
            payload.data = bytes(payload.data)
    elif isinstance(item, Reply):
        route = item.info.get("route")
        if route:
            item.info["route"] = _encode_path(route)
    else:
        raise TypeError(f"cannot ship {item!r} across a partition boundary")
    return item


def decode_item(item: Any, resolve: Callable[[str], Any]) -> Any:
    """Rebind hub names to this partition's hub objects; returns ``item``.

    ``resolve`` maps a hub name to the local ``Hub`` (or proxy).
    """
    if isinstance(item, Packet):
        item.reverse_path = _decode_path(item.reverse_path, resolve)
    elif isinstance(item, Reply):
        route = item.info.get("route")
        if route:
            item.info["route"] = _decode_path(route, resolve)
    return item

