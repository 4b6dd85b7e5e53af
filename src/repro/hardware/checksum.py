"""The CAB's hardware checksum unit (§5.1).

"Hardware checksum computation removes this burden from protocol
software": with the unit enabled, checksums are computed on the fly as
DMA streams data, adding zero time.  Disabling it (an ablation the
benchmarks exercise) makes the caller charge
``SOFTWARE_CHECKSUM_NS_PER_BYTE`` of CPU time per byte instead.

The model keeps the unit's cost and its verdict, not a checksum value:
the verdict is :attr:`~repro.hardware.frames.Payload.corrupt`, which a
faulted fiber or the fault injector sets and the receiving transport
reads.
"""

from __future__ import annotations

from ..config import SOFTWARE_CHECKSUM_NS_PER_BYTE, CabConfig


class ChecksumUnit:
    """What checking a payload costs the CAB."""

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
