"""Adaptive retransmission timing: Jacobson/Karn RTO estimation.

One :class:`RtoEstimator` tracks the smoothed round-trip time to one
peer CAB (SRTT/RTTVAR, RFC 6298 coefficients) and produces the
retransmission timeout the reliable transports arm:

    ``RTO = clamp(SRTT + 4·RTTVAR, min_rto, max_rto) · backoff + jitter``

Karn's rule is enforced by the callers: only round trips of packets
that were *not* retransmitted are sampled, so an ack for the original
transmission can never be mistaken for an ack of the retransmission.
Backoff doubles on every timeout and collapses back to 1 on any fresh
ack; the jitter term is drawn from a dedicated, seeded RNG stream
(``rto:<cab>-><peer>``) so two same-seed runs arm byte-identical
timers.
"""

from __future__ import annotations

import random
from typing import Optional

from ..config import TransportConfig

__all__ = ["RtoEstimator"]

#: SRTT gain (RFC 6298: alpha = 1/8).
ALPHA = 0.125
#: RTTVAR gain (RFC 6298: beta = 1/4).
BETA = 0.25
#: Variance multiplier in the RTO formula.
K = 4
#: Backoff ceiling: doubling stops here (the max_rto clamp usually
#: binds first).
MAX_BACKOFF = 64


class RtoEstimator:
    """Per-peer smoothed RTT state and the current retransmit timeout."""

    def __init__(self, cfg: TransportConfig, rng: random.Random) -> None:
        self.cfg = cfg
        self.rng = rng
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.backoff = 1
        self._jitter_ns = 0
        self.samples = 0

    # ------------------------------------------------------------------

    def on_sample(self, rtt_ns: int) -> None:
        """Fold in one Karn-clean RTT measurement (not retransmitted)."""
        if rtt_ns < 0:
            return
        if self.srtt is None:
            self.srtt = float(rtt_ns)
            self.rttvar = rtt_ns / 2.0
        else:
            self.rttvar = ((1 - BETA) * self.rttvar
                           + BETA * abs(self.srtt - rtt_ns))
            self.srtt = (1 - ALPHA) * self.srtt + ALPHA * rtt_ns
        self.samples += 1
        self._reset_backoff()

    def on_success(self) -> None:
        """Any forward progress (fresh ack/response) collapses backoff."""
        self._reset_backoff()

    def on_timeout(self) -> None:
        """A retransmission timer fired: double the backoff, re-jitter."""
        self.backoff = min(self.backoff * 2, MAX_BACKOFF)
        jitter_span = int(self.base_rto_ns() * self.cfg.rto_jitter)
        self._jitter_ns = self.rng.randrange(jitter_span) if jitter_span \
            else 0

    def _reset_backoff(self) -> None:
        self.backoff = 1
        self._jitter_ns = 0

    # ------------------------------------------------------------------

    def base_rto_ns(self) -> int:
        """The un-backed-off timeout: SRTT + 4·RTTVAR, clamped."""
        if self.srtt is None:
            # No samples yet: start from the configured fixed timer.
            return self.cfg.retransmit_timeout_ns
        raw = int(self.srtt + K * self.rttvar)
        return max(self.cfg.min_rto_ns, min(raw, self.cfg.max_rto_ns))

    def current_rto_ns(self) -> int:
        """The timeout to arm right now (backoff and jitter applied)."""
        backed = self.base_rto_ns() * self.backoff + self._jitter_ns
        return max(self.cfg.min_rto_ns, min(backed, self.cfg.max_rto_ns))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        srtt = "-" if self.srtt is None else f"{self.srtt / 1000:.1f}us"
        return (f"<RtoEstimator srtt={srtt} backoff={self.backoff} "
                f"rto={self.current_rto_ns() / 1000:.1f}us>")
