"""Exception hierarchy for the Nectar reproduction."""

from __future__ import annotations

__all__ = [
    "NectarError", "ConfigError", "TopologyError", "RouteError",
    "HubCommandError", "DatalinkError", "TransportError", "ChecksumError",
    "MailboxError", "ProtectionFault", "AllocationError", "NodeError",
    "NectarineError", "WorkloadError", "ObserveError", "CollectiveError",
    "ScaleoutError"
]


class NectarError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(NectarError):
    """A configuration parameter is invalid or inconsistent."""


class TopologyError(NectarError):
    """Invalid wiring: bad port, duplicate attachment, unknown element."""


class RouteError(NectarError):
    """No route exists between the requested endpoints."""


class HubCommandError(NectarError):
    """A HUB command could not be executed (bad port, bad target hub)."""


class DatalinkError(NectarError):
    """The datalink layer exhausted its recovery attempts."""


class TransportError(NectarError):
    """A transport protocol failed to deliver (after retries, if any)."""


class ChecksumError(TransportError):
    """A packet failed checksum verification."""


class MailboxError(NectarError):
    """Invalid mailbox operation (closed mailbox, exhausted space)."""


class ProtectionFault(NectarError):
    """A memory access violated the CAB page-protection tables."""


class AllocationError(NectarError):
    """A memory region could not satisfy an allocation request."""


class NodeError(NectarError):
    """Invalid operation on a node host or node process."""


class NectarineError(NectarError):
    """Invalid use of the Nectarine task/message API."""


class WorkloadError(NectarError):
    """Invalid workload specification (pattern, arrivals, sweep)."""


class ObserveError(NectarError):
    """Invalid observability operation (duplicate metric, bad probe)."""


class CollectiveError(NectarError):
    """A collective operation failed or timed out (never hangs)."""


class ScaleoutError(NectarError):
    """A partitioned scale-out run could not be completed.

    Raised by the coordinator on the first worker crash, hang,
    exception or planner divergence (or when a worker process leaks
    past SIGKILL).  Carries ``forensics``: one dict per partition with
    the last round and window reached, events processed and its
    ``failure`` (reason, detail, exit code) or ``None`` — everything the
    post-mortem needs.
    """

    def __init__(self, message: str, forensics: list | None = None) -> None:
        super().__init__(message)
        self.forensics = forensics or []
