"""BT-MZ: NAS multi-zone block-tridiagonal solver.

Characteristics encoded from the paper:

* compute-intensive diagonal solver: high L1 MPKI (~24) but small
  L2/L3 MPKI — block data fits on-chip once past the L1 (Fig. 1);
* zones of *uneven* size (BT-MZ's defining feature): strong intra-rank
  task imbalance plus serialized segments limit scaling (Sec. V-A);
* good vectorization potential on the dense 5x5 block kernels (mid-pack
  512-bit speedup, Fig. 5a), with a higher relative gain on small-cache
  low-end configurations (Sec. V-B1's BTMZ remark);
* compute-bound: per-core power is on the high side (Fig. 5b), and
  memory channels are irrelevant to it (Fig. 8a).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..runtime.openmp import task_phase
from ..trace.events import ComputePhase
from ..trace.kernel import InstructionMix, KernelSignature, ReuseProfile
from .base import AppModel

__all__ = ["BtMz"]

_REF_NS_PER_INSTR = 0.5
_INSTR_PER_ZONE_TASK = 2_800_000.0


class BtMz(AppModel):
    """BT-MZ application model."""

    name = "btmz"
    halo_bytes = 3200 * 1024
    allreduce_per_iter = 1
    rank_imbalance = 0.45
    default_iterations = 4
    n_zones = 40

    def kernels(self) -> Dict[str, KernelSignature]:
        # Dense block solves: plenty of L1 traffic (5x5 blocks thrash the
        # tiny L1) but strong L2 residency.
        solve_reuse = ReuseProfile.from_components(
            [
                (4.0, 0.885),       # block-register reuse
                (160.0, 0.033),     # within-L1 block reuse
                (1_500.0, 0.0658),  # L1 miss, L2 hit (both sizes)
                (5_200.0, 0.0200),  # ~330 KB: misses a 256 kB L2
                (12_000.0, 0.0060), # ~768 KB: L2 miss, L3 hit
                (1.2e6, 0.0010),    # zone-boundary cold sweeps
            ],
            cold_fraction=0.0008,
        )
        rhs_reuse = ReuseProfile.from_components(
            [
                (4.0, 0.90),
                (1_500.0, 0.09),
                (12_000.0, 0.006),
                (1.2e6, 0.002),
            ],
            cold_fraction=0.001,
        )
        return {
            "bt_solve": KernelSignature(
                name="bt_solve",
                instr_per_unit=_INSTR_PER_ZONE_TASK,
                mix=InstructionMix(fp=0.40, int_alu=0.13, load=0.25,
                                   store=0.09, branch=0.10, other=0.03),
                ilp=3.2,
                vec_fraction=0.75,
                trip_count=256,
                mlp=4.0,
                reuse=solve_reuse,
                row_hit_rate=0.70,
            ),
            "bt_rhs": KernelSignature(
                name="bt_rhs",
                instr_per_unit=_INSTR_PER_ZONE_TASK * 0.4,
                mix=InstructionMix(fp=0.36, int_alu=0.15, load=0.25,
                                   store=0.09, branch=0.11, other=0.04),
                ilp=3.0,
                vec_fraction=0.70,
                trip_count=256,
                mlp=4.0,
                reuse=rhs_reuse,
                row_hit_rate=0.75,
            ),
        }

    def iteration_phases(self) -> Tuple[ComputePhase, ...]:
        rng = self._rng("phases")
        solve_ns = _INSTR_PER_ZONE_TASK * _REF_NS_PER_INSTR
        phases = []
        # Uneven zones: strong imbalance; serialized boundary-copy code
        # between sweeps shows up as serial_ns.
        for i in range(3):
            phases.append(task_phase(
                phase_id=i, kernel="bt_solve", n_tasks=self.n_zones,
                task_ns=solve_ns, imbalance=0.50, creation_ns=350.0,
                serial_task_ns=solve_ns * 0.25, rng=rng,
            ))
        phases.append(task_phase(
            phase_id=3, kernel="bt_rhs", n_tasks=self.n_zones,
            task_ns=solve_ns * 0.4, imbalance=0.50, creation_ns=350.0,
            serial_task_ns=solve_ns * 0.15, rng=rng,
        ))
        return tuple(phases)
