"""The CAB's hardware checksum unit (§5.1).

"Hardware checksum computation removes this burden from protocol
software": with the unit enabled, checksums are computed on the fly as
DMA streams data, adding zero time.  Disabling it (an ablation the
benchmarks exercise) makes the caller charge
``SOFTWARE_CHECKSUM_NS_PER_BYTE`` of CPU time per byte instead.
"""

from __future__ import annotations

from ..config import SOFTWARE_CHECKSUM_NS_PER_BYTE, CabConfig
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
        return num_bytes * SOFTWARE_CHECKSUM_NS_PER_BYTE

    def seal(self, payload: Payload) -> Payload:
        return payload.seal()

    def verify(self, payload: Payload) -> bool:
        return payload.verify_checksum()
