"""Synthetic traffic patterns: who talks to whom.

A pattern maps each traffic source to a destination for every message it
emits.  The classic interconnect stressors are provided — uniform random,
static permutation, matrix transpose, hotspot (the canonical crossbar
stressor from the Ultracomputer literature) and all-to-all.

Patterns are deterministic given their RNG stream: build them from
:meth:`~repro.config.NectarConfig.rng_stream` and two runs with the same
seed generate the same traffic, message for message.
"""

from __future__ import annotations

import random
from typing import Optional

from ..errors import WorkloadError


class TrafficPattern:
    """Base class: a destination chooser over a fixed endpoint set."""

    name = "pattern"

    def __init__(self, endpoints: list[str]) -> None:
        if len(endpoints) < 2:
            raise WorkloadError(
                f"a traffic pattern needs at least 2 endpoints, "
                f"got {len(endpoints)}")
        self.endpoints = list(endpoints)
        self.index = {name: i for i, name in enumerate(self.endpoints)}
        if len(self.index) != len(self.endpoints):
            raise WorkloadError("duplicate endpoint names")

    def destination(self, src: str) -> str:
        """The destination of the next message emitted by ``src``."""
        raise NotImplementedError

    def _check_src(self, src: str) -> int:
        try:
            return self.index[src]
        except KeyError:
            raise WorkloadError(
                f"{src!r} is not a pattern endpoint") from None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} over {len(self.endpoints)} endpoints>"


class UniformRandom(TrafficPattern):
    """Every message goes to a uniformly random other endpoint."""

    name = "uniform"

    def __init__(self, endpoints: list[str], rng: random.Random) -> None:
        super().__init__(endpoints)
        self.rng = rng

    def destination(self, src: str) -> str:
        i = self._check_src(src)
        n = len(self.endpoints)
        j = self.rng.randrange(n - 1)
        if j >= i:
            j += 1
        return self.endpoints[j]


class Permutation(TrafficPattern):
    """A fixed random permutation: each source always targets one peer.

    The mapping is a derangement (no endpoint maps to itself) and a
    bijection (every endpoint receives from exactly one source), so every
    link carries exactly one flow — the zero-contention counterpoint to
    hotspot traffic.
    """

    name = "permutation"

    def __init__(self, endpoints: list[str], rng: random.Random) -> None:
        super().__init__(endpoints)
        n = len(endpoints)
        mapping = list(range(n))
        for _attempt in range(100):
            rng.shuffle(mapping)
            if all(mapping[i] != i for i in range(n)):
                break
        else:  # vanishingly unlikely (P[derangement] ≈ 1/e per try)
            mapping = [(i + 1) % n for i in range(n)]
        self.mapping = mapping

    def destination(self, src: str) -> str:
        return self.endpoints[self.mapping[self._check_src(src)]]


class Transpose(TrafficPattern):
    """Matrix-transpose permutation traffic.

    For a square endpoint count ``n = s*s``, index ``r*s + c`` sends to
    ``c*s + r``.  For non-square power-of-two counts the bit-reversal
    permutation is used instead; otherwise rotation by ``n // 2``.
    Diagonal elements (which transpose onto themselves) are redirected to
    the opposite endpoint so no source idles or self-delivers.
    """

    name = "transpose"

    def __init__(self, endpoints: list[str]) -> None:
        super().__init__(endpoints)
        n = len(endpoints)
        side = int(round(n ** 0.5))
        if side * side == n:
            mapping = [(i % side) * side + (i // side) for i in range(n)]
        elif n & (n - 1) == 0:
            bits = n.bit_length() - 1
            mapping = [int(format(i, f"0{bits}b")[::-1], 2)
                       for i in range(n)]
        else:
            mapping = [(i + n // 2) % n for i in range(n)]
        half = max(1, n // 2)
        self.mapping = [m if m != i else (i + half) % n
                        for i, m in enumerate(mapping)]

    def destination(self, src: str) -> str:
        return self.endpoints[self.mapping[self._check_src(src)]]


class Hotspot(TrafficPattern):
    """Uniform traffic with a fraction aimed at one hot endpoint.

    With probability ``fraction`` a message targets the hotspot; the rest
    is uniform random over the other endpoints.  The hotspot itself sends
    uniform traffic.  This is the canonical interconnect stressor: the
    hot output port saturates long before the aggregate does, and tail
    latency degrades system-wide as blocked packets queue upstream.
    """

    name = "hotspot"

    def __init__(self, endpoints: list[str], rng: random.Random,
                 fraction: float = 0.25,
                 hotspot: Optional[str] = None) -> None:
        super().__init__(endpoints)
        if not 0.0 <= fraction <= 1.0:
            raise WorkloadError(f"hotspot fraction {fraction} outside [0, 1]")
        self.rng = rng
        self.fraction = fraction
        self.hotspot = hotspot if hotspot is not None else self.endpoints[0]
        if self.hotspot not in self.index:
            raise WorkloadError(
                f"hotspot {self.hotspot!r} is not a pattern endpoint")
        # Per-source uniform candidates: everyone but self and (for
        # non-hotspot sources) the hotspot, which gets exactly ``fraction``.
        self._cold = {
            src: [e for e in self.endpoints
                  if e != src and (src == self.hotspot or e != self.hotspot)]
            for src in self.endpoints
        }

    def destination(self, src: str) -> str:
        self._check_src(src)
        if src != self.hotspot and self.rng.random() < self.fraction:
            return self.hotspot
        candidates = self._cold[src]
        if not candidates:  # 2-endpoint degenerate case
            return self.hotspot if src != self.hotspot \
                else self.endpoints[1 - self.index[src]]
        return candidates[self.rng.randrange(len(candidates))]


class AllToAll(TrafficPattern):
    """Each source cycles round-robin through every other endpoint.

    Deterministic and perfectly balanced: after ``n - 1`` messages a
    source has visited every peer exactly once.  Sources start at
    different offsets so the instantaneous load is spread.
    """

    name = "all-to-all"

    def __init__(self, endpoints: list[str]) -> None:
        super().__init__(endpoints)
        self._cursor = {name: 0 for name in self.endpoints}

    def destination(self, src: str) -> str:
        i = self._check_src(src)
        n = len(self.endpoints)
        step = self._cursor[src]
        self._cursor[src] = step + 1
        offset = 1 + (i + step) % (n - 1)
        return self.endpoints[(i + offset) % n]


#: Pattern registry for CLI / factory lookups.
PATTERNS = {
    "uniform": UniformRandom,
    "permutation": Permutation,
    "transpose": Transpose,
    "hotspot": Hotspot,
    "all-to-all": AllToAll,
}


def make_pattern(name: str, endpoints: list[str],
                 rng: Optional[random.Random] = None,
                 **kwargs) -> TrafficPattern:
    """Build a pattern by name (``uniform``, ``permutation``, ``transpose``,
    ``hotspot``, ``all-to-all``)."""
    try:
        cls = PATTERNS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown traffic pattern {name!r}; "
            f"choose from {sorted(PATTERNS)}") from None
    if cls in (UniformRandom, Permutation, Hotspot):
        if rng is None:
            raise WorkloadError(f"pattern {name!r} needs an RNG stream")
        return cls(endpoints, rng, **kwargs)
    return cls(endpoints, **kwargs)
