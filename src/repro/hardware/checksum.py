"""The CAB's hardware checksum unit (§5.1).

"Hardware checksum computation removes this burden from protocol
software": with the unit enabled, checksums are computed on the fly as
DMA streams data, adding zero time.  Disabling it (an ablation the
benchmarks exercise) makes the caller charge
``software_checksum_ns_per_byte`` of CPU time per byte instead.
"""

from __future__ import annotations

from ..config import CabConfig
from .frames import Payload


class ChecksumUnit:
    """Seals and verifies payloads in flight (Fletcher-16, see ``Payload``)."""

    def __init__(self, cfg: CabConfig) -> None:
        self.cfg = cfg

    @property
    def hardware(self) -> bool:
        return self.cfg.hardware_checksum

    def cost_ns(self, num_bytes: int) -> int:
        """CPU time the computation costs (0 with the hardware unit)."""
        if self.cfg.hardware_checksum:
            return 0
        return num_bytes * self.cfg.software_checksum_ns_per_byte

    def seal(self, payload: Payload) -> Payload:
        return payload.seal()

    def verify(self, payload: Payload) -> bool:
        return payload.verify_checksum()
