"""Silicon area model (the 'A' in McPAT).

McPAT reports area alongside power; architects use it to reason about
die cost and about what a design point spends its transistor budget on.
We model per-structure areas at 22nm with the same scaling knobs as the
power model: OoO window structures grow superlinearly with capability,
FPUs grow linearly with lane count, SRAM grows linearly with capacity.

These are first-order numbers (a 22nm server core is a few mm^2, SRAM
is ~1.1 mm^2 per MB with overheads) — good for *relative* comparisons
across the design space, which is all the co-design analysis needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.cache import MIB
from ..config.node import NodeConfig

__all__ = ["AreaModel", "NodeArea"]


@dataclass(frozen=True)
class NodeArea:
    """Area breakdown of one socket, in mm^2."""

    cores_mm2: float
    l2_mm2: float
    l3_mm2: float
    uncore_mm2: float

    @property
    def total_mm2(self) -> float:
        return self.cores_mm2 + self.l2_mm2 + self.l3_mm2 + self.uncore_mm2


@dataclass(frozen=True)
class AreaModel:
    """Per-structure area coefficients at 22nm."""

    #: in-order-ish pipeline skeleton (fetch/decode/L1s/TLBs)
    core_base_mm2: float = 1.6
    #: additional area at full aggressive OoO capability (ROB, schedulers,
    #: rename, big register files); quadratic-ish growth folded linearly
    #: into window_capability, which is itself an average of the knobs.
    core_ooo_mm2: float = 2.4
    #: per 64-bit FPU lane (datapath + its register-file slice)
    fpu_lane_mm2: float = 0.16
    #: SRAM density including tags/ECC/periphery
    sram_mm2_per_mb: float = 1.15
    #: memory controllers, on-chip fabric, IO — grows with channel count
    uncore_base_mm2: float = 18.0
    uncore_per_channel_mm2: float = 3.2

    def core_mm2(self, node: NodeConfig) -> float:
        """Area of one core (excluding its L2 slice)."""
        cap = node.core.window_capability
        lanes = node.vector_lanes
        return (self.core_base_mm2 + self.core_ooo_mm2 * cap
                + self.fpu_lane_mm2 * node.core.n_fpu * lanes)

    def node_area(self, node: NodeConfig) -> NodeArea:
        """Area breakdown of the whole socket."""
        l2_total_mb = node.cache.l2.size_bytes * node.n_cores / MIB
        l3_total_mb = node.cache.l3.size_bytes / MIB
        return NodeArea(
            cores_mm2=self.core_mm2(node) * node.n_cores,
            l2_mm2=l2_total_mb * self.sram_mm2_per_mb,
            l3_mm2=l3_total_mb * self.sram_mm2_per_mb,
            uncore_mm2=(self.uncore_base_mm2
                        + self.uncore_per_channel_mm2
                        * node.memory.n_channels),
        )
