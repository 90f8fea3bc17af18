"""Specfem3D: continuous Galerkin spectral-element seismic wave solver.

Characteristics encoded from the paper:

* unstructured hexahedral meshes: indirect (gather/scatter) access with
  poor spatial locality — high L1/L2/L3 MPKI (Fig. 1) and a DRAM stream
  with very low row-buffer locality;
* the most *latency*-sensitive application: dependent indirection keeps
  inherent MLP low, so low-end OoO configurations are ~60% slower than
  aggressive ones (Fig. 7a) while extra memory *bandwidth* buys nothing
  (Fig. 8a) — its cores are starved, not the channels;
* the canonical Fig. 3 victim: few coarse element-block tasks with
  serialized assembly segments leave most of a 64-core CPU idle;
* cache-size insensitive: locality gains from bigger caches are offset
  by their extra latency (Sec. V-B2).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..runtime.openmp import task_phase
from ..trace.events import ComputePhase
from ..trace.kernel import InstructionMix, KernelSignature, ReuseProfile
from .base import AppModel

__all__ = ["Specfem3D"]

_REF_NS_PER_INSTR = 0.5
_INSTR_PER_BLOCK_TASK = 3_200_000.0


class Specfem3D(AppModel):
    """Specfem3D application model."""

    name = "spec3d"
    halo_bytes = 2600 * 1024
    allreduce_per_iter = 1
    rank_imbalance = 0.50
    default_iterations = 4
    #: element blocks per rank in the traced mesh partition
    n_blocks = 36

    def kernels(self) -> Dict[str, KernelSignature]:
        # Gather/scatter over an unstructured mesh: mediocre short-range
        # locality, a broad medium-distance shoulder, and a heavy far
        # tail that no realistic cache captures (hence the paper's
        # cache-size insensitivity: the capacity knee sits far out).
        element_reuse = ReuseProfile.from_components(
            [
                (4.0, 0.815),
                (90.0, 0.064),       # element-local reuse inside L1
                (2_200.0, 0.0800),   # assembled-field slab: L2 resident
                (25_000.0, 0.0065),  # ~1.6 MB: L2 miss, L3-share hit
                (9.0e5, 0.0046),     # global gather: misses everything
            ],
            cold_fraction=0.0008,
        )
        assembly_reuse = ReuseProfile.from_components(
            [
                (4.0, 0.82),
                (2_200.0, 0.100),
                (25_000.0, 0.013),
                (9.0e5, 0.0085),
            ],
            cold_fraction=0.0012,
        )
        return {
            "element_kernel": KernelSignature(
                name="element_kernel",
                instr_per_unit=_INSTR_PER_BLOCK_TASK,
                mix=InstructionMix(fp=0.30, int_alu=0.14, load=0.31,
                                   store=0.09, branch=0.12, other=0.04),
                ilp=2.8,
                vec_fraction=0.70,
                trip_count=125,      # 5x5x5 GLL points per element
                mlp=1.8,             # dependent indirection
                reuse=element_reuse,
                row_hit_rate=0.20,
            ),
            "assembly": KernelSignature(
                name="assembly",
                instr_per_unit=_INSTR_PER_BLOCK_TASK * 0.45,
                mix=InstructionMix(fp=0.22, int_alu=0.18, load=0.32,
                                   store=0.12, branch=0.12, other=0.04),
                ilp=2.4,
                vec_fraction=0.25,   # scatter with conflicts
                trip_count=125,
                mlp=1.5,
                reuse=assembly_reuse,
                row_hit_rate=0.15,
            ),
        }

    def iteration_phases(self) -> Tuple[ComputePhase, ...]:
        rng = self._rng("phases")
        elem_ns = _INSTR_PER_BLOCK_TASK * _REF_NS_PER_INSTR
        # Element-block tasks: few and uneven; long serial assembly
        # sections between them (the gray idle expanse of Fig. 3).
        forces = task_phase(
            phase_id=0, kernel="element_kernel", n_tasks=self.n_blocks,
            task_ns=elem_ns, imbalance=0.40, creation_ns=400.0,
            serial_task_ns=elem_ns * 0.6, rng=rng,
        )
        assembly = task_phase(
            phase_id=1, kernel="assembly", n_tasks=self.n_blocks // 2,
            task_ns=elem_ns * 0.45, imbalance=0.40, creation_ns=400.0,
            serial_task_ns=elem_ns * 0.5, rng=rng,
        )
        update = task_phase(
            phase_id=2, kernel="assembly", n_tasks=self.n_blocks,
            task_ns=elem_ns * 0.2, imbalance=0.30, creation_ns=400.0,
            serial_task_ns=elem_ns * 0.2, rng=rng,
        )
        return (forces, assembly, update)
