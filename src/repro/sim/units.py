"""Time and bandwidth units for the Nectar simulator.

The simulator clock counts integer **nanoseconds**.  All durations in the
code base are integers in this unit; helpers below convert from human units
and from bandwidths to per-byte times.  Integer time keeps runs exactly
reproducible (no floating-point drift between platforms).
"""

from __future__ import annotations

#: One nanosecond — the base tick of the simulation clock.
NANOSECOND = 1
#: One microsecond in simulator ticks.
MICROSECOND = 1_000
#: One millisecond in simulator ticks.
MILLISECOND = 1_000_000
#: One second in simulator ticks.
SECOND = 1_000_000_000


def us(value: float) -> int:
    """Convert a duration in microseconds to simulator ticks."""
    return round(value * MICROSECOND)


def ms(value: float) -> int:
    """Convert a duration in milliseconds to simulator ticks."""
    return round(value * MILLISECOND)


def megabits_per_second(rate: float) -> float:
    """Convert a rate in megabits/second to bytes per nanosecond."""
    return rate * 1_000_000 / 8 / SECOND


def megabytes_per_second(rate: float) -> float:
    """Convert a rate in megabytes/second to bytes per nanosecond."""
    return rate * 1_000_000 / SECOND


def byte_time(rate_bytes_per_ns: float) -> float:
    """Time in ticks to move one byte at ``rate_bytes_per_ns``."""
    return 1.0 / rate_bytes_per_ns


def transfer_time(num_bytes: int, rate_bytes_per_ns: float) -> int:
    """Integer ticks to move ``num_bytes`` at ``rate_bytes_per_ns``.

    Always at least 1 tick for a non-empty transfer so that causality is
    preserved (a transfer can never complete at the instant it starts).
    """
    if num_bytes <= 0:
        return 0
    ticks = round(num_bytes / rate_bytes_per_ns)
    return max(ticks, 1)


def to_us(ticks: int) -> float:
    """Express simulator ticks as microseconds (for reporting)."""
    return ticks / MICROSECOND


def to_ms(ticks: int) -> float:
    """Express simulator ticks as milliseconds (for reporting)."""
    return ticks / MILLISECOND


def throughput_mbps(num_bytes: int, ticks: int) -> float:
    """Achieved throughput in megabits/second for ``num_bytes`` over ``ticks``."""
    if ticks <= 0:
        return 0.0
    return num_bytes * 8 / (ticks / SECOND) / 1_000_000


def throughput_mbytes(num_bytes: int, ticks: int) -> float:
    """Achieved throughput in megabytes/second for ``num_bytes`` over ``ticks``."""
    if ticks <= 0:
        return 0.0
    return num_bytes / (ticks / SECOND) / 1_000_000
