"""HYDRO: simplified RAMSES — compressible Euler equations (Godunov).

Characteristics encoded from the paper:

* structured-grid stencil kernels with strong cache locality — the
  smallest MPKI of the five apps (Fig. 1: L1 ~6, L2 ~1.8, L3 ~0.2);
* the main working-set slice per thread is ~350 KB, so upgrading the L2
  from 256 kB to 512 kB collapses L2 misses by ~4x (Sec. V-B2);
* the only application that keeps >75% parallel efficiency at 64 cores
  (Fig. 2a): many fine-grained, well-balanced loop chunks — whose small
  size makes task *creation* the bottleneck above 2.5 GHz (Sec. V-B5);
* moderate auto-vectorization: ~20% speedup at 512-bit (Fig. 5a);
* negligible rank-level imbalance (Fig. 2b keeps scaling).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..runtime.openmp import parallel_for
from ..trace.events import ComputePhase
from ..trace.kernel import InstructionMix, KernelSignature, ReuseProfile
from .base import AppModel

__all__ = ["Hydro"]

#: reference-trace task execution rate: 1 instruction per ns (IPC 2 @ 2 GHz)
_REF_NS_PER_INSTR = 0.5

_INSTR_PER_TASK = 120_000.0        # godunov loop chunks (~60 us reference)
_INSTR_PER_TRACE_TASK = 72_000.0   # trace/update chunks (~36 us reference)


class Hydro(AppModel):
    """HYDRO application model."""

    name = "hydro"
    halo_bytes = 128 * 1024
    allreduce_per_iter = 1
    rank_imbalance = 0.08
    default_iterations = 4
    n_tasks_per_phase = 512

    def kernels(self) -> Dict[str, KernelSignature]:
        # Stencil sweep with row-level and slab-level reuse: a small tail
        # of accesses reuses at ~350 KB (misses a 256 kB L2, fits 512 kB),
        # a smaller one at ~750 KB (fits the L3 share even at 64 cores),
        # and a whisper of truly cold traffic.
        godunov_reuse = ReuseProfile.from_components(
            [
                (6.0, 0.9465),       # register/line-level reuse
                (150.0, 0.0310),     # row reuse within L1
                (5_500.0, 0.0157),   # ~350 KB slab: the L2 256->512 knee
                (12_000.0, 0.0061),  # ~768 KB: L3 resident
                (2.0e6, 0.0003),     # cold-ish sweep traffic
            ],
            cold_fraction=0.0004,
        )
        trace_reuse = ReuseProfile.from_components(
            [
                (6.0, 0.962),
                (2_000.0, 0.030),
                (12_000.0, 0.0070),
                (2.0e6, 0.0004),
            ],
            cold_fraction=0.0006,
        )
        return {
            "godunov": KernelSignature(
                name="godunov",
                instr_per_unit=_INSTR_PER_TASK,
                mix=InstructionMix(fp=0.36, int_alu=0.14, load=0.21,
                                   store=0.09, branch=0.12, other=0.08),
                ilp=3.4,
                vec_fraction=0.72,
                trip_count=512,
                mlp=4.0,
                reuse=godunov_reuse,
                row_hit_rate=0.85,
            ),
            "trace_update": KernelSignature(
                name="trace_update",
                instr_per_unit=_INSTR_PER_TRACE_TASK,
                mix=InstructionMix(fp=0.30, int_alu=0.18, load=0.22,
                                   store=0.08, branch=0.14, other=0.08),
                ilp=3.0,
                vec_fraction=0.55,
                trip_count=512,
                mlp=4.0,
                reuse=trace_reuse,
                row_hit_rate=0.85,
            ),
        }

    def iteration_phases(self) -> Tuple[ComputePhase, ...]:
        rng = self._rng("phases")
        godunov = parallel_for(
            phase_id=0, kernel="godunov",
            n_iterations=self.n_tasks_per_phase,
            iter_ns=_INSTR_PER_TASK * _REF_NS_PER_INSTR,
            chunk=1, imbalance=0.05, creation_ns=200.0,
            serial_ns=4_000.0, rng=rng,
        )
        trace = parallel_for(
            phase_id=1, kernel="trace_update",
            n_iterations=self.n_tasks_per_phase,
            iter_ns=_INSTR_PER_TRACE_TASK * _REF_NS_PER_INSTR,
            chunk=1, imbalance=0.05, creation_ns=200.0,
            serial_ns=4_000.0, rng=rng,
        )
        return (godunov, trace)
