"""CollectiveGroup: collective operations over Nectarine tasks.

A group is a fixed, ordered set of tasks (ranks).  Operations are SPMD:
every rank's body calls the same collectives in the same order, each
call is a generator, and per-rank sequence numbers give matching epochs
without any out-of-band agreement.

Two execution modes (``cfg.collectives.mode``):

* ``hub`` — barrier/allreduce are *in-network*: every rank issues one
  ``SV_BARRIER``/``SV_REDUCE`` to its attached HUB, the HUBs combine
  through a reduction tree planned here from the router's topology
  tables, and the release fans back over reverse-path replies.  One
  command each way per rank, no software message processing on the hot
  path.  ``broadcast`` uses the HUB's hardware multicast (§4.2.2).
* ``tree`` — pure software: k-ary trees of datagrams between the
  member tasks.  Works for any rank count and any placement; this is
  also the automatic fallback whenever the HUB path cannot serve
  (node-resident tasks, ranks sharing a CAB for multicast).

Every blocking step carries a deadline: a collective completes or
raises :class:`~repro.errors.CollectiveError` — it never hangs, even
under fault-injection campaigns.
"""

from __future__ import annotations

from collections import Counter
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..config import COLLECTIVE_FANOUT
from ..errors import CollectiveError
from ..hardware.frames import Payload
from ..hardware.hub_collectives import REDUCE_OPS
from ..hardware.hub_commands import CommandOp
from .tree import tree_children, tree_parent

__all__ = ["CollectiveGroup"]

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.mailbox import Mailbox, Message
    from ..nectarine.api import Task
    from ..system.builder import NectarSystem


def _next_gid(system: "NectarSystem") -> int:
    # Per-system, so back-to-back runs of the same scenario allocate
    # identical group ids (a module-global counter would leak across
    # simulations and break byte-identical schedules).
    counter = getattr(system, "_collective_gids", None)
    if counter is None:
        counter = count(1)
        system._collective_gids = counter
    return next(counter)


def _pack(parts: dict[int, bytes]) -> bytes:
    """Frame rank-tagged byte strings (4-byte rank, 4-byte length)."""
    return b"".join(
        rank.to_bytes(4, "little") + len(body).to_bytes(4, "little") + body
        for rank, body in sorted(parts.items()))


def _unpack(blob: bytes) -> dict[int, bytes]:
    parts: dict[int, bytes] = {}
    offset = 0
    while offset < len(blob):
        rank = int.from_bytes(blob[offset:offset + 4], "little")
        length = int.from_bytes(blob[offset + 4:offset + 8], "little")
        offset += 8
        parts[rank] = blob[offset:offset + length]
        offset += length
    return parts


class CollectiveGroup:
    """A fixed set of ranks with barrier/reduce/broadcast semantics."""

    def __init__(self, tasks: Sequence["Task"],
                 name: Optional[str] = None) -> None:
        if not tasks:
            raise CollectiveError("a collective group needs at least 1 rank")
        self.tasks = list(tasks)
        self.n = len(self.tasks)
        self.system: "NectarSystem" = self.tasks[0].runtime.system
        self.sim = self.system.sim
        self.cfg = self.system.cfg
        self.router = self.system.router
        self.gid = _next_gid(self.system)
        self.name = name or f"group{self.gid}"
        requested = self.cfg.collectives.mode
        if requested == "exchange":
            # Dimension exchange lives in the iPSC library; as a group
            # mode it means "software", i.e. the k-ary tree.
            requested = "tree"
        if requested == "hub" and not all(t.on_cab for t in self.tasks):
            # Node-resident tasks cannot issue HUB commands directly.
            requested = "tree"
        self.mode = requested
        #: Per-rank collective sequence numbers (SPMD discipline makes
        #: them agree; they double as the HUB-side epoch).
        self._seqs = [0] * self.n
        cab_names = [t.cab.name for t in self.tasks]
        self._unique_cabs = len(set(cab_names)) == self.n
        self._hub_tree: Optional[dict[str, Any]] = None
        self._root_hub: Optional[str] = None
        self._bcast_boxes: list[Optional["Mailbox"]] = [None] * self.n
        if self.mode == "hub":
            self._hub_tree, self._root_hub = self._build_hub_tree()
            if self._unique_cabs and self.n > 1:
                # Hardware multicast delivers one identical byte stream
                # to every destination, so the landing mailbox must have
                # one name on every member CAB (needs distinct CABs).
                for index, task in enumerate(self.tasks):
                    self._bcast_boxes[index] = task.cab.create_mailbox(
                        f"coll:{self.gid}")

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def _build_hub_tree(self) -> tuple[dict[str, Any], str]:
        """Reduction tree over the HUB mesh, rooted at rank 0's HUB.

        Each member HUB's shortest path to the root contributes parent
        edges (subpaths of BFS shortest paths are shortest, so parent
        pointers always reduce distance to the root — no cycles).  A
        HUB's expected-arrival count is its local members plus its child
        HUBs; pure transit HUBs get entries with zero local members.
        """
        members: Counter = Counter()
        for task in self.tasks:
            hub, _port = self.router.cab_location(task.cab.name)
            members[hub.name] += 1
        root_hub, _port = self.router.cab_location(self.tasks[0].cab.name)
        root = root_hub.name
        edges: dict[str, str] = {}
        for hub_name in sorted(members):
            path = self.router.hub_path(hub_name, root)
            for child, parent in zip(path, path[1:]):
                edges[child] = parent
        child_counts: Counter = Counter(edges.values())
        spec: dict[str, Any] = {}
        for hub_name in sorted(set(members) | set(edges) | {root}):
            entry: dict[str, Any] = {
                "expected": members.get(hub_name, 0)
                + child_counts.get(hub_name, 0),
            }
            parent = edges.get(hub_name)
            if parent is None:
                entry["parent"] = None
                entry["parent_hub"] = None
            else:
                port_here, _far = self.router.parallel_links(
                    hub_name, parent)[0]
                entry["parent"] = port_here
                entry["parent_hub"] = parent
            spec[hub_name] = entry
        return spec, root

    def _next_seq(self, rank: int) -> int:
        seq = self._seqs[rank]
        self._seqs[rank] += 1
        return seq

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n:
            raise CollectiveError(f"{self.name} has no rank {rank}")

    # ------------------------------------------------------------------
    # collective operations (generators; call from the rank's task body)
    # ------------------------------------------------------------------

    def barrier(self, rank: int):
        """Block until every rank has entered this barrier."""
        self._check_rank(rank)
        seq = self._next_seq(rank)
        if self.n == 1:
            return None
        if self.mode == "hub":
            yield from self._hub_join(rank, CommandOp.SV_BARRIER, seq,
                                      None, "sum")
            return None
        yield from self._tree_combine(rank, seq, None, "sum")
        return None

    def allreduce(self, rank: int, value: int, op: str = "sum"):
        """Combine one integer per rank; every rank gets the result."""
        self._check_rank(rank)
        if op not in REDUCE_OPS:
            raise CollectiveError(f"unknown reduce op {op!r}")
        seq = self._next_seq(rank)
        if self.n == 1:
            return value
        if self.mode == "hub":
            reply = yield from self._hub_join(rank, CommandOp.SV_REDUCE,
                                              seq, value, op)
            return reply.info["value"]
        result = yield from self._tree_combine(rank, seq, value, op)
        return result

    def broadcast(self, rank: int, data: Optional[bytes] = None,
                  root: int = 0):
        """Send ``data`` from ``root`` to every rank; all return it."""
        self._check_rank(rank)
        self._check_rank(root)
        seq = self._next_seq(rank)
        if rank == root and data is None:
            raise CollectiveError("broadcast root must supply data")
        if self.n == 1:
            return bytes(data)
        if self.mode == "hub" and self._unique_cabs:
            result = yield from self._hub_broadcast(rank, data, root, seq)
        else:
            result = yield from self._tree_broadcast(rank, data, root, seq)
        return result

    def scatter(self, rank: int, chunks: Optional[Sequence[bytes]] = None):
        """Send ``chunks[i]`` from rank 0 to rank ``i``."""
        self._check_rank(rank)
        root = 0
        seq = self._next_seq(rank)
        if rank == root:
            if chunks is None or len(chunks) != self.n:
                raise CollectiveError(
                    f"scatter root needs exactly {self.n} chunks")
            for peer in range(self.n):
                if peer != root:
                    yield from self._send(rank, peer, "scat",
                                          bytes(chunks[peer]), seq)
            return bytes(chunks[root])
        message = yield from self._timed_receive(
            rank, self._match(seq, "scat", root))
        return message.data

    def gather(self, rank: int, data: bytes):
        """Collect every rank's bytes at rank 0 (others return None)."""
        self._check_rank(rank)
        root = 0
        seq = self._next_seq(rank)
        if rank != root:
            yield from self._send(rank, root, "gath", bytes(data), seq)
            return None
        parts = {root: bytes(data)}
        for peer in range(self.n):
            if peer == root:
                continue
            message = yield from self._timed_receive(
                rank, self._match(seq, "gath", peer))
            parts[peer] = message.data
        return [parts[peer] for peer in range(self.n)]

    def allgather(self, rank: int, data: bytes):
        """Every rank gets the list of every rank's bytes.

        Software k-ary merge up to rank 0, then one broadcast down — in
        ``hub`` mode the down phase is the HUB's hardware multicast.
        """
        self._check_rank(rank)
        if self.n == 1:
            return [bytes(data)]
        seq = self._next_seq(rank)
        parts = {rank: bytes(data)}
        for child in tree_children(rank, self.n, COLLECTIVE_FANOUT):
            message = yield from self._timed_receive(
                rank, self._match(seq, "up", child))
            parts.update(_unpack(message.data))
        parent = tree_parent(rank, self.n, COLLECTIVE_FANOUT)
        blob: Optional[bytes] = None
        if parent is None:
            blob = _pack(parts)
        else:
            yield from self._send(rank, parent, "up", _pack(parts), seq)
        blob = yield from self.broadcast(rank, blob, root=0)
        parts = _unpack(blob)
        return [parts[peer] for peer in range(self.n)]

    def fetch_add(self, rank: int, register: int, delta: int = 1):
        """Atomic fetch-and-add on a register homed on the root HUB."""
        self._check_rank(rank)
        if self.mode != "hub":
            raise CollectiveError(
                "fetch-and-add is a HUB register operation; the group "
                "runs in software mode")
        reply = yield from self.tasks[rank].cab.datalink.collective_command(
            CommandOp.SV_FETCH_ADD, param=register, arg={"delta": delta},
            hub_name=self._root_hub)
        return reply.info["value"]

    def reset(self, rank: int = 0):
        """Supervisor cleanup: clear this group's HUB state everywhere."""
        self._check_rank(rank)
        if self.mode != "hub":
            return None
        datalink = self.tasks[rank].cab.datalink
        for hub_name in sorted(self._hub_tree):
            yield from datalink.collective_command(
                CommandOp.SV_COLL_RESET, param=self.gid, hub_name=hub_name)
        return None

    # ------------------------------------------------------------------
    # HUB-offloaded paths
    # ------------------------------------------------------------------

    def _hub_join(self, rank: int, op: CommandOp, epoch: int,
                  value: Optional[int], reduce_op: str):
        datalink = self.tasks[rank].cab.datalink
        arg: dict[str, Any] = {"epoch": epoch, "op": reduce_op,
                               "tree": self._hub_tree}
        if value is not None:
            arg["value"] = value
        reply = yield from datalink.collective_command(
            op, param=self.gid, arg=arg)
        if not reply.ok:
            raise CollectiveError(
                f"{self.name}: {op.name} epoch {epoch} failed: "
                f"{reply.info.get('reason', 'refused')}")
        return reply

    def _hub_broadcast(self, rank: int, data: Optional[bytes],
                       root: int, seq: int):
        """One hardware multicast from the root's CAB (§4.2.2)."""
        if rank == root:
            body = bytes(data)
            root_cab = self.tasks[root].cab
            header = {
                "proto": "dg", "dst_mailbox": f"coll:{self.gid}",
                "kind": "data", "msg_id": f"coll:{self.gid}:{seq}",
                "frag": 0, "nfrags": 1, "total_size": len(body),
                "src": root_cab.name,
                "meta": {"coll": self.gid, "cseq": seq,
                         "ckind": "bcast", "csrc": root},
            }
            payload = Payload(len(body), data=body, header=header)
            destinations = [task.cab.name
                            for index, task in enumerate(self.tasks)
                            if index != root]
            yield from root_cab.datalink.multicast(destinations, payload,
                                                   mode="auto")
            return body
        message = yield from self._timed_receive(
            rank, self._match(seq, "bcast", root),
            mailbox=self._bcast_boxes[rank])
        return message.data

    # ------------------------------------------------------------------
    # software k-ary tree paths
    # ------------------------------------------------------------------

    def _tree_combine(self, rank: int, seq: int, value: Optional[int],
                      op: str):
        """Reduce up the tree (rooted at rank 0), fan the result down.

        ``value is None`` is the barrier: only arrival matters and the
        release carries no operand.
        """
        fold: Callable[[int, int], int] = REDUCE_OPS[op]
        total = value
        for child in tree_children(rank, self.n, COLLECTIVE_FANOUT):
            message = yield from self._timed_receive(
                rank, self._match(seq, "up", child))
            if value is not None:
                operand = int(message.data.decode())
                total = operand if total is None else fold(total, operand)
        parent = tree_parent(rank, self.n, COLLECTIVE_FANOUT)
        if parent is not None:
            body = b"\0" if value is None else str(total).encode()
            yield from self._send(rank, parent, "up", body, seq)
            message = yield from self._timed_receive(
                rank, self._match(seq, "down", parent))
            total = None if value is None else int(message.data.decode())
        result_body = b"\0" if value is None else str(total).encode()
        for child in tree_children(rank, self.n, COLLECTIVE_FANOUT):
            yield from self._send(rank, child, "down", result_body, seq)
        return total

    def _tree_broadcast(self, rank: int, data: Optional[bytes],
                        root: int, seq: int):
        parent = tree_parent(rank, self.n, COLLECTIVE_FANOUT, root)
        if parent is None:
            body = bytes(data)
        else:
            message = yield from self._timed_receive(
                rank, self._match(seq, "bcast", parent))
            body = message.data
        for child in tree_children(rank, self.n, COLLECTIVE_FANOUT, root):
            yield from self._send(rank, child, "bcast", body, seq)
        return body

    # ------------------------------------------------------------------
    # messaging plumbing
    # ------------------------------------------------------------------

    def _match(self, seq: int, kind: str, src_rank: int):
        gid = self.gid

        def predicate(message: "Message") -> bool:
            meta = message.meta
            return (meta.get("coll") == gid and meta.get("cseq") == seq
                    and meta.get("ckind") == kind
                    and meta.get("csrc") == src_rank)
        return predicate

    def _send(self, rank: int, dst_rank: int, kind: str, body: bytes,
              seq: int):
        src, dst = self.tasks[rank], self.tasks[dst_rank]
        yield from src.cab.transport.datagram.send(
            dst.cab.name, dst.mailbox.name, data=body, size=len(body),
            meta={"coll": self.gid, "cseq": seq, "ckind": kind,
                  "csrc": rank})

    def _timed_receive(self, rank: int,
                       predicate: Callable[["Message"], bool],
                       mailbox: Optional["Mailbox"] = None):
        """A mailbox read with a deadline: message or CollectiveError."""
        task = self.tasks[rank]
        box = mailbox if mailbox is not None else task.mailbox
        kernel = task.cab.kernel
        event = box.get_match(predicate)
        deadline = self.sim.timeout(self.cfg.collectives.software_timeout_ns)
        result = yield from kernel.wait(self.sim.any_of([event, deadline]))
        if event in result:
            return result[event]
        if not box.cancel_read(event):
            # The read completed in the same instant the deadline fired.
            return event.value
        raise CollectiveError(
            f"{self.name}: rank {rank} timed out waiting on {box.name}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CollectiveGroup {self.name} n={self.n} "
                f"mode={self.mode}>")
