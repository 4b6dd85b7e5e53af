"""Hardware models: fibers, HUBs, CABs, memories, buses (§§3–5)."""

from .bom import (CAB_BOARD, HUB_BACKPLANE, HUB_IO_BOARD, BoardSpec,
                  hub_bill_of_materials, system_bill_of_materials)
from .cab import CabBoard, CabCpu
from .checksum import ChecksumUnit
from .crossbar import Crossbar
from .dma import DmaController
from .fiber import Fiber
from .frames import (COLLECTIVE_ARG_BYTES, COMMAND_BYTES, FRAMING_BYTES,
                     HubCommand, Packet, Payload, Reply)
from .hub import HARDWARE_VERSION, Hub
from .hub_collectives import REDUCE_OPS, HubCollectiveUnit
from .hub_commands import CommandOp
from .hub_controller import HubController
from .hub_port import HubPort
from .memory import (ALL_ACCESS, EXECUTE, KERNEL_DOMAIN, READ, WRITE,
                     BandwidthPool, MemoryBlock, MemoryRegion,
                     ProtectionUnit)
from .node import NodeHost
from .timers import HardwareTimers, TimerHandle
from .vme import VmeBus
from .wiring import wire_cab_to_hub, wire_hub_to_hub

__all__ = [
    "ALL_ACCESS", "CAB_BOARD", "COLLECTIVE_ARG_BYTES", "COMMAND_BYTES",
    "EXECUTE", "FRAMING_BYTES", "HUB_BACKPLANE", "HUB_IO_BOARD",
    "KERNEL_DOMAIN", "READ", "REDUCE_OPS", "WRITE", "BoardSpec",
    "BandwidthPool", "CabBoard", "CabCpu", "ChecksumUnit", "CommandOp",
    "Crossbar", "DmaController", "Fiber", "HARDWARE_VERSION",
    "HardwareTimers", "Hub", "HubCollectiveUnit", "HubCommand",
    "HubController", "HubPort",
    "MemoryBlock", "MemoryRegion", "NodeHost", "Packet", "Payload",
    "ProtectionUnit",
    "Reply", "TimerHandle", "VmeBus",
    "wire_cab_to_hub", "wire_hub_to_hub",
    "hub_bill_of_materials", "system_bill_of_materials",
]
