"""SP-MZ: NAS multi-zone scalar-pentadiagonal solver.

Characteristics encoded from the paper:

* the most cache-hostile access pattern of the five: line-implicit
  solver sweeps along non-unit strides give an enormous L1 MPKI (~97)
  and large L2/L3 MPKI (Fig. 1);
* the biggest SIMD winner — ~75% speedup at 512-bit (Fig. 5a), the
  motivation for the Table II Vector+/Vector++ study: long regular
  inner loops, nearly fully vectorizable;
* zone-level task parallelism only (~1 task per zone, no nested
  parallelism in the trace), so 64-core nodes starve: parallel
  efficiency drops hard between 32 and 64 cores (Fig. 2a) — and the
  resulting idle cores keep its bandwidth demand low (Sec. V-B4's
  "if SPMZ was able to scale..." remark);
* no serialized segments (the only app without them, Sec. V-A).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..runtime.openmp import task_phase
from ..trace.events import ComputePhase
from ..trace.kernel import InstructionMix, KernelSignature, ReuseProfile
from .base import AppModel

__all__ = ["SpMz"]

_REF_NS_PER_INSTR = 0.5
_INSTR_PER_ZONE_TASK = 2_400_000.0  # one solver sweep over one zone


class SpMz(AppModel):
    """SP-MZ application model."""

    name = "spmz"
    halo_bytes = 2600 * 1024
    allreduce_per_iter = 1
    rank_imbalance = 0.35
    default_iterations = 4
    #: zones per rank in the traced input (caps task parallelism)
    n_zones = 40

    def kernels(self) -> Dict[str, KernelSignature]:
        # Strided solver sweeps: one third of accesses leave the L1
        # (stride > line), most land in a ~2k-line slab (L2-resident),
        # and a large tail sweeps zone planes far beyond any cache.
        solve_reuse = ReuseProfile.from_components(
            [
                (4.0, 0.645),       # within-line / register reuse
                (120.0, 0.033),     # short-range reuse inside L1
                (2_000.0, 0.248),   # plane slab: L1 miss, L2 hit
                (10_500.0, 0.060),  # ~670 KB: L2 miss, L3 hit in every config
                (1.0e6, 0.0065),    # zone sweep: misses everything
            ],
            cold_fraction=0.0015,
        )
        rhs_reuse = ReuseProfile.from_components(
            [
                (4.0, 0.80),
                (2_000.0, 0.15),
                (10_500.0, 0.040),
                (1.0e6, 0.0045),
            ],
            cold_fraction=0.0012,
        )
        return {
            "sp_solve": KernelSignature(
                name="sp_solve",
                instr_per_unit=_INSTR_PER_ZONE_TASK,
                mix=InstructionMix(fp=0.33, int_alu=0.13, load=0.28,
                                   store=0.10, branch=0.10, other=0.06),
                ilp=1.7,
                vec_fraction=0.93,
                trip_count=1024,
                mlp=6.0,
                reuse=solve_reuse,
                row_hit_rate=0.85,
            ),
            "sp_rhs": KernelSignature(
                name="sp_rhs",
                instr_per_unit=_INSTR_PER_ZONE_TASK * 0.5,
                mix=InstructionMix(fp=0.35, int_alu=0.13, load=0.26,
                                   store=0.10, branch=0.10, other=0.06),
                ilp=1.9,
                vec_fraction=0.91,
                trip_count=1024,
                mlp=6.0,
                reuse=rhs_reuse,
                row_hit_rate=0.88,
            ),
        }

    def iteration_phases(self) -> Tuple[ComputePhase, ...]:
        rng = self._rng("phases")
        solve_ns = _INSTR_PER_ZONE_TASK * _REF_NS_PER_INSTR
        phases = []
        # x/y/z solver sweeps: one task per zone, modest imbalance
        # (SP-MZ zones are equally sized), no serial segments.
        for i, axis in enumerate("xyz"):
            phases.append(task_phase(
                phase_id=i, kernel="sp_solve", n_tasks=self.n_zones,
                task_ns=solve_ns, imbalance=0.15, creation_ns=350.0,
                serial_ns=0.0, rng=rng,
            ))
        phases.append(task_phase(
            phase_id=3, kernel="sp_rhs", n_tasks=self.n_zones,
            task_ns=solve_ns * 0.5, imbalance=0.15, creation_ns=350.0,
            serial_ns=0.0, rng=rng,
        ))
        return tuple(phases)
