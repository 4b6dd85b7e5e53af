"""The HUB crossbar switch (§4.1, Figure 5).

An input queue can feed multiple output registers (multicast fan-out), but
each output register has at most one input connected at a time.  The
status table tracks live connections; the central controller is the only
writer, CABs may interrogate it.
"""

from __future__ import annotations

from typing import Optional


class Crossbar:
    """An N×N crossbar with multicast fan-out and a status table."""

    def __init__(self, num_ports: int) -> None:
        if num_ports < 2:
            raise ValueError(f"crossbar needs >= 2 ports, got {num_ports}")
        self.num_ports = num_ports
        #: output index -> input index currently connected (None if free).
        self._out_owner: list[Optional[int]] = [None] * num_ports
        #: input index -> set of output indices it feeds; an input gets its
        #: set when it first feeds an output (most ports of a large fabric
        #: never do).
        self._in_targets: dict[int, set[int]] = {}
        self.connects_refused = 0

    def _check_port(self, index: int) -> None:
        if not 0 <= index < self.num_ports:
            raise IndexError(f"port {index} outside 0..{self.num_ports - 1}")

    # ------------------------------------------------------------------

    def connect(self, in_port: int, out_port: int) -> bool:
        """Attempt to connect ``in_port`` → ``out_port``.

        Returns False (and changes nothing) if the output register is
        already driven by another input.  Connecting an input to an output
        it already feeds is an idempotent success.
        """
        self._check_port(in_port)
        self._check_port(out_port)
        owner = self._out_owner[out_port]
        if owner is not None and owner != in_port:
            self.connects_refused += 1
            return False
        self._out_owner[out_port] = in_port
        targets = self._in_targets.get(in_port)
        if targets is None:
            self._in_targets[in_port] = {out_port}
        else:
            targets.add(out_port)
        return True

    def disconnect(self, out_port: int) -> Optional[int]:
        """Free an output register; returns the input that was driving it."""
        self._check_port(out_port)
        owner = self._out_owner[out_port]
        if owner is None:
            return None
        self._out_owner[out_port] = None
        self._in_targets[owner].discard(out_port)
        return owner

    def disconnect_input(self, in_port: int) -> list[int]:
        """Free every output fed by ``in_port``; returns those outputs."""
        self._check_port(in_port)
        targets = self._in_targets.get(in_port)
        if not targets:
            return []
        outputs = sorted(targets)
        for out_port in outputs:
            self._out_owner[out_port] = None
        targets.clear()
        return outputs

    def reset(self) -> None:
        """Supervisor reset: drop every connection."""
        self._out_owner = [None] * self.num_ports
        self._in_targets = {}

    # ------------------------------------------------------------------
    # status table
    # ------------------------------------------------------------------

    def owner_of(self, out_port: int) -> Optional[int]:
        self._check_port(out_port)
        return self._out_owner[out_port]

    def outputs_of(self, in_port: int) -> frozenset[int]:
        self._check_port(in_port)
        return frozenset(self._in_targets.get(in_port, ()))

    def output_busy(self, out_port: int) -> bool:
        return self.owner_of(out_port) is not None

    @property
    def connection_count(self) -> int:
        return sum(1 for owner in self._out_owner if owner is not None)

    def snapshot(self) -> dict[int, Optional[int]]:
        """Status-table dump: output index -> driving input (or None)."""
        return {out: owner for out, owner in enumerate(self._out_owner)}

    def check_invariants(self) -> None:
        """Internal consistency check (used by property tests)."""
        for out_port, owner in enumerate(self._out_owner):
            if owner is not None:
                assert out_port in self._in_targets.get(owner, ()), (
                    f"out {out_port} owned by {owner} but not in its targets")
        for in_port, targets in self._in_targets.items():
            for out_port in targets:
                assert self._out_owner[out_port] == in_port, (
                    f"in {in_port} claims out {out_port} owned by "
                    f"{self._out_owner[out_port]}")
