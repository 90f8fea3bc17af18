"""Processor power model (McPAT substitute).

Per-structure accounting at a 22nm reference point (0.90 V):

* **dynamic** energy per event — front-end/rename/ROB energy per
  instruction (growing with OoO aggressiveness), ALU and FPU energy per
  operation (FPU energy and area scale with SIMD width), cache energy
  per access at each level;
* **leakage** power per structure — core logic scaled by the OoO class,
  FPU lanes, and SRAM leakage proportional to cache capacity.

Calibrated against the paper's observed power structure: Core+L1 power
+~60% going 128->512 bit (Fig. 5b), low-end cores ~50% of aggressive
(Fig. 7b), L2+L3 reaching ~20% of node power at 96 MB (Fig. 6b), and
~2.5x node power from 1.5 to 3.0 GHz (Fig. 9b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..config.cache import MIB
from ..config.node import NodeConfig
from .technology import energy_scale, leakage_scale

__all__ = ["McPatModel"]


@dataclass(frozen=True)
class McPatModel:
    """Per-event energies (nJ) and leakage powers (W) at 0.90 V / 22nm."""

    # Front-end + rename + ROB + commit energy per instruction for a
    # baseline in-order-ish pipeline; the OoO window multiplier scales it.
    e_instr_base_nj: float = 0.26
    #: additional per-instruction energy at full aggressive OoO capability
    e_instr_ooo_nj: float = 0.40
    e_int_op_nj: float = 0.10
    #: energy per *scalar-equivalent* double-precision flop; a fused
    #: vector op of L lanes costs L times this less a 15% amortization.
    e_flop_nj: float = 0.52
    e_l1_access_nj: float = 0.08
    e_l2_access_nj: float = 0.35
    e_l3_access_nj: float = 1.40
    #: vector register/datapath overhead per fused vector instruction
    vector_amortization: float = 0.85
    #: per-lane datapath energy growth of wide FPUs: each 64-bit lane
    #: beyond the 128-bit baseline adds this fraction to per-flop energy
    #: (wide units are less energy-proportional than narrow ones)
    fpu_width_energy_factor: float = 0.18
    #: busy-wait power of an idle core at the 2 GHz reference point —
    #: OpenMP/OmpSs worker threads spin-poll for work, so starved cores
    #: burn dynamic power too (Sec. V's underutilization argument)
    idle_spin_w_ref: float = 1.05

    def flop_energy_factor(self, node: NodeConfig) -> float:
        """Per-flop energy multiplier from the physical FPU width."""
        return max(0.85, 1.0 + self.fpu_width_energy_factor
                   * (node.vector_lanes - 2))

    def idle_spin_w(self, node: NodeConfig) -> float:
        """Dynamic power of one spin-waiting idle core."""
        from .technology import dynamic_scale

        return self.idle_spin_w_ref * dynamic_scale(node.frequency_ghz)

    # Leakage at reference voltage.
    leak_core_base_w: float = 0.10
    leak_core_ooo_w: float = 0.28       # at full aggressive capability
    leak_per_fpu_lane_w: float = 0.030  # per FPU per 64-bit lane
    leak_l1_w: float = 0.04
    leak_sram_w_per_mb: float = 0.18    # L2/L3 SRAM arrays

    # -- leakage -------------------------------------------------------------

    def core_l1_leakage_w(self, node: NodeConfig) -> float:
        """Leakage of one core + its L1, at the node's voltage.

        Burned whether the core is busy or idle — underutilized nodes
        waste exactly this (the paper's co-design conclusion).
        """
        cap = node.core.window_capability
        lanes = node.vector_lanes
        base = (
            self.leak_core_base_w
            + self.leak_core_ooo_w * cap
            + self.leak_per_fpu_lane_w * node.core.n_fpu * lanes
            + self.leak_l1_w
        )
        return base * leakage_scale(node.frequency_ghz)

    def l2_l3_leakage_w(self, node: NodeConfig) -> float:
        """Leakage of the node's whole L2+L3 SRAM capacity."""
        l2_total = node.cache.l2.size_bytes * node.n_cores
        l3_total = node.cache.l3.size_bytes
        mb = (l2_total + l3_total) / MIB
        return mb * self.leak_sram_w_per_mb * leakage_scale(node.frequency_ghz)

    # -- dynamic -------------------------------------------------------------

    def dynamic_energy_j(
        self,
        node: NodeConfig,
        instructions: float,
        scalar_flops: float,
        l1_accesses: float,
        l2_accesses: float,
        l3_accesses: float,
        effective_lanes: float = 1.0,
    ) -> Tuple[float, float]:
        """Dynamic energy (joules) for given event totals.

        Returns ``(core_l1_j, l2_l3_j)``.  FPU energy is charged per
        *scalar-equivalent* flop (fusion does not change arithmetic work
        done) with an amortization discount for fused control.
        """
        if min(instructions, scalar_flops, l1_accesses, l2_accesses,
               l3_accesses) < 0:
            raise ValueError("event counts must be non-negative")
        escale = energy_scale(node.frequency_ghz)
        cap = node.core.window_capability
        e_instr = self.e_instr_base_nj + self.e_instr_ooo_nj * cap
        amort = self.vector_amortization if effective_lanes > 1.0 else 1.0
        e_flop = self.e_flop_nj * amort * self.flop_energy_factor(node)
        other_ops = max(0.0, instructions - scalar_flops - l1_accesses)
        core_l1_nj = (
            instructions * e_instr
            + scalar_flops * e_flop
            + other_ops * self.e_int_op_nj * 0.5
            + l1_accesses * self.e_l1_access_nj
        )
        l2_l3_nj = (
            l2_accesses * self.e_l2_access_nj
            + l3_accesses * self.e_l3_access_nj
        )
        return core_l1_nj * 1e-9 * escale, l2_l3_nj * 1e-9 * escale
