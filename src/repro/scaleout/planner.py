"""The grant planner: one barrier round's window arithmetic, no I/O.

What every worker knows of a partitioned run is two things:
``peeks[j]``, partition ``j``'s next local event time as of its last
state report (``None`` = idle), and ``pending[j]``, the envelopes
captured for ``j`` that no grant has covered yet.  :func:`plan_round`
turns that knowledge into the round's grants and reads nothing else, so
the soundness argument below is a property of one function — checked
without forking a process in ``tests/test_scaleout_planner.py`` — and
workers holding the same knowledge plan the same grants.  The peer
exchange lives in :mod:`repro.scaleout.worker`; deadlines and failures
in :mod:`repro.scaleout.supervisor`.

**The grant.**  ``T[j]``, partition ``j``'s *trigger horizon*, is the
earliest instant it could commit a new cross-partition message: the min
of ``peeks[j]`` and its earliest pending arrival (an injected envelope
can cause an immediate send).  Worker ``i`` may consume every event up
to ::

    grant_i = min over live j with an entry D[j][i] of (T[j] + D[j][i]) - 1

where ``D`` is :func:`~repro.scaleout.partition.lookahead_matrix`.  With
no such term the grant is ``None``: no bound, the worker runs its
agenda to the end.

**Causal closure.**  Any yet-unknown envelope reaching ``i`` is the tail
of a causal chain of commits starting from some trigger ``T[j]``; each
cross-partition hop pays at least the crossed cut's lookahead, and
``D[j][i]`` is the shortest-path closure of those hop costs, so nothing
unknown lands on ``i`` before ``min_j (T[j] + D[j][i]) > grant_i`` —
however many lookahead-widths the grant spans.  A chain can only follow
edges, so where ``D[j][i]`` has no entry no chain from ``j`` reaches
``i`` at all, and ``j`` bounds nothing there; an idle ``j`` (no
trigger) starts no chain, and can itself only be woken along an edge
from a live partition, whose own term already covers ``i``.  A worker
without a single term can therefore never receive anything, and running
it to the end of its agenda is exact.  The ``j == i`` term (the matrix
diagonal: shortest feedback cycle, ``>= 2L`` for the global minimum
lookahead ``L``) is what the classic one-window argument does not need:
inside a wide grant a neighbour can react to ``i``'s own sends, so
``i`` may not outrun its own trigger plus the round trip (drop the term
and a 2-partition torus run injects into a worker's past within a few
dozen rounds).

**Progress.**  With ``N = min T[j]`` the global horizon, every term is
at least ``N + L``, so the worker holding the global minimum gets
``grant >= N + L - 1 >= N`` (or no bound): it always consumes its next
trigger, horizons are monotone, the run terminates.

**No cap.**  The term of the worker ``m`` holding ``N`` keeps every
grant ``m`` can reach below ``N + D[m][i]`` (for ``m`` itself, one
feedback cycle), so no bounded grant runs further ahead of the global
horizon than one matrix entry and the rule needs no separate bound on a
grant's width.

**Idle elision.**  A worker with ``T[i] > grant_i`` has no due envelope
and no local event inside its grant; its state cannot change, so it
neither runs nor reports and its last report stays authoritative.  The
global-minimum worker is never idle, so elision never stalls a round.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence

__all__ = ["plan_round", "post", "take_due"]


def post(heap: list, source: int, envelope: tuple) -> None:
    """File ``envelope`` (captured by partition ``source``) as pending.

    The heap key ``(arrival, source partition, capture seq)`` is the
    deterministic injection order; ``seq`` is unique per source, so the
    comparison never reaches the envelope itself.
    """
    heapq.heappush(heap, (envelope[0], source, envelope[1], envelope))


def take_due(heap: list, grant: Optional[int]) -> list[tuple]:
    """Pop the envelopes arriving at or before ``grant`` (all of them
    for ``None``), in injection order."""
    due = []
    while heap and (grant is None or heap[0][0] <= grant):
        due.append(heapq.heappop(heap)[3])
    return due


def plan_round(peeks: Sequence[Optional[int]], pending: Sequence[list],
               distance: Sequence[Sequence[Optional[int]]]
               ) -> Optional[dict[int, Optional[int]]]:
    """Per worker that runs this round, the last instant it may consume
    (``None``: no bound, to the end of its agenda); an elided worker
    has no entry.  ``None`` instead of a dict when the run is done.

    Pure: reads ``peeks`` and the head of each ``pending`` heap (built
    by :func:`post`); the caller pops each granted worker's due
    envelopes with :func:`take_due`.
    """
    triggers = []
    for peek, heap in zip(peeks, pending):
        if heap and (peek is None or heap[0][0] < peek):
            peek = heap[0][0]
        triggers.append(peek)
    live = [(trigger, source) for source, trigger in enumerate(triggers)
            if trigger is not None]
    if not live:
        return None
    grants: dict[int, Optional[int]] = {}
    for index, trigger in enumerate(triggers):
        if trigger is None:
            continue
        reach = min((available + distance[source][index]
                     for available, source in live
                     if distance[source][index] is not None),
                    default=None)
        if reach is None:
            grants[index] = None
        elif trigger < reach:
            grants[index] = reach - 1
    return grants
