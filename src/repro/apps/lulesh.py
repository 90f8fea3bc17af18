"""LULESH: unstructured Lagrangian shock hydrodynamics proxy app.

Characteristics encoded from the paper:

* heavily *bandwidth*-bound: dozens of coupled field arrays streamed
  per element update — working sets far beyond any cache, the highest
  DRAM request rate of the five (Fig. 1) and the only app that profits
  (up to ~60% at 64 cores) from doubling memory channels (Fig. 8a);
* very short inner loops (corners/faces of an element) — SIMD fusion
  never exceeds 128-bit groups, so wider FPUs buy nothing (Fig. 5a),
  motivating the Table II MEM+/MEM++ narrow-FPU configurations;
* thread-level load imbalance is its scaling limiter at 64 cores
  (Sec. V-A) and rank-level imbalance fills MPI barriers with idle
  time (Fig. 4) — it performs several reductions per step (dt control);
* core OoO capability matters little once channels saturate: medium
  cores give almost-free energy savings (Fig. 7c).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..runtime.openmp import task_phase
from ..trace.events import ComputePhase
from ..trace.kernel import InstructionMix, KernelSignature, ReuseProfile
from .base import AppModel

__all__ = ["Lulesh"]

_REF_NS_PER_INSTR = 0.5
_INSTR_PER_TASK = 900_000.0


class Lulesh(AppModel):
    """LULESH application model."""

    name = "lulesh"
    halo_bytes = 1500 * 1024
    allreduce_per_iter = 3   # dt + energy + volume checks per step
    rank_imbalance = 0.55
    default_iterations = 4
    n_tasks_per_phase = 80

    def kernels(self) -> Dict[str, KernelSignature]:
        # Multi-array element streams: good within-line locality, a thin
        # L2-resident slab of connectivity data, and a dominant far tail
        # (the ~25 field arrays never fit; every sweep re-streams them).
        stress_reuse = ReuseProfile.from_components(
            [
                (4.0, 0.9480),
                (4_500.0, 0.0170),   # ~290 KB slab: misses a 256 kB L2
                (12_000.0, 0.0012),
                (2.5e6, 0.0190),     # field-array streaming: DRAM
            ],
            cold_fraction=0.0025,
        )
        hourglass_reuse = ReuseProfile.from_components(
            [
                (4.0, 0.952),
                (4_500.0, 0.019),
                (2.5e6, 0.0180),
            ],
            cold_fraction=0.0030,
        )
        return {
            "stress": KernelSignature(
                name="stress",
                instr_per_unit=_INSTR_PER_TASK,
                mix=InstructionMix(fp=0.32, int_alu=0.13, load=0.28,
                                   store=0.12, branch=0.11, other=0.04),
                ilp=2.6,
                vec_fraction=0.30,
                trip_count=4,        # 8 corners, unrolled pairs
                mlp=12.0,            # independent streaming misses
                reuse=stress_reuse,
                row_hit_rate=0.55,
            ),
            "hourglass": KernelSignature(
                name="hourglass",
                instr_per_unit=_INSTR_PER_TASK * 0.8,
                mix=InstructionMix(fp=0.34, int_alu=0.13, load=0.27,
                                   store=0.11, branch=0.11, other=0.04),
                ilp=2.6,
                vec_fraction=0.30,
                trip_count=4,
                mlp=12.0,
                reuse=hourglass_reuse,
                row_hit_rate=0.55,
            ),
        }

    def iteration_phases(self) -> Tuple[ComputePhase, ...]:
        rng = self._rng("phases")
        task_ns = _INSTR_PER_TASK * _REF_NS_PER_INSTR
        # Three big sweeps per timestep; pronounced task imbalance (the
        # paper's 64-core limiter) and a little serial glue.
        stress = task_phase(
            phase_id=0, kernel="stress", n_tasks=self.n_tasks_per_phase,
            task_ns=task_ns, imbalance=0.45, creation_ns=250.0,
            serial_task_ns=task_ns * 0.15, rng=rng,
        )
        hourglass = task_phase(
            phase_id=1, kernel="hourglass", n_tasks=self.n_tasks_per_phase,
            task_ns=task_ns * 0.8, imbalance=0.45, creation_ns=250.0,
            serial_task_ns=task_ns * 0.10, rng=rng,
        )
        update = task_phase(
            phase_id=2, kernel="hourglass", n_tasks=self.n_tasks_per_phase,
            task_ns=task_ns * 0.4, imbalance=0.35, creation_ns=250.0,
            serial_task_ns=task_ns * 0.05, rng=rng,
        )
        return (stress, hourglass, update)
