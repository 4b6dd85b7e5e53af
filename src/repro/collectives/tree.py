"""k-ary tree shapes for software collectives.

The software fallback arranges ranks in a complete k-ary tree (arity
``COLLECTIVE_FANOUT``) rooted at any rank: ranks are remapped to
*virtual* ranks ``v = (r - root) % n`` so the standard heap layout
(children of ``v`` are ``v*k+1 .. v*k+k``) works for every root.  Depth
is ``log_k(n)``, so a 6-rank group with fanout 4 completes in two
levels where dimension exchange would need a power-of-two rank count.
"""

from __future__ import annotations

__all__ = ["tree_parent", "tree_children", "tree_depth"]


def _virtual(rank: int, n: int, root: int) -> int:
    return (rank - root) % n


def _actual(virtual: int, n: int, root: int) -> int:
    return (virtual + root) % n


def tree_parent(rank: int, n: int, fanout: int, root: int = 0):
    """Parent of ``rank`` in the k-ary tree, or ``None`` for the root."""
    virtual = _virtual(rank, n, root)
    if virtual == 0:
        return None
    return _actual((virtual - 1) // fanout, n, root)


def tree_children(rank: int, n: int, fanout: int,
                  root: int = 0) -> list[int]:
    """Children of ``rank`` in the k-ary tree (possibly empty)."""
    virtual = _virtual(rank, n, root)
    first = virtual * fanout + 1
    return [_actual(child, n, root)
            for child in range(first, min(first + fanout, n))]


def tree_depth(n: int, fanout: int) -> int:
    """Levels below the root (0 for a single-rank group)."""
    depth = 0
    reach = 1
    width = fanout
    while reach < n:
        reach += width
        width *= fanout
        depth += 1
    return depth
