"""Power models (McPAT + DRAMPower substitutes, 22nm technology)."""

from .area import AreaModel, NodeArea
from .breakdown import PowerBreakdown
from .drampower import DramPowerModel, DramPowerResult
from .mcpat import McPatModel
from .technology import (
    FREF_GHZ,
    VREF,
    dynamic_scale,
    energy_scale,
    leakage_scale,
    voltage_for_frequency,
)

__all__ = [
    "AreaModel",
    "DramPowerModel",
    "DramPowerResult",
    "FREF_GHZ",
    "McPatModel",
    "NodeArea",
    "PowerBreakdown",
    "VREF",
    "dynamic_scale",
    "energy_scale",
    "leakage_scale",
    "voltage_for_frequency",
]
