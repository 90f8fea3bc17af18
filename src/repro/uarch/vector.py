"""SIMD fusion model (Sec. III, "Support for vectorization").

MUSA's tracer scalarizes every vector instruction with a marker; at
simulation time, marked scalar instructions are *fused* back together up
to the requested vector width.  Fusion of ``L`` lanes requires the same
static instruction to execute ``L`` times in a row, so the innermost
loop trip count caps the achievable width:

* a loop with trip count ``T`` and lane target ``L`` fuses
  ``floor(T / L)`` full groups; the ``T mod L`` leftover iterations run
  scalar, giving an instruction-reduction factor
  ``R = T / (floor(T/L) + T mod L)``;
* for ``T >> L`` this approaches ``L``; for ``T < L`` it is 1 — no
  benefit, which is exactly what the paper observes for LULESH's short
  loops (Sec. V-B1);
* fused memory operations move ``R x 8`` bytes each: the number of cache
  *accesses* drops but the byte traffic (and thus DRAM bandwidth demand)
  is conserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..trace.kernel import KernelSignature

__all__ = ["VectorizationResult", "fusion_factor", "vectorize",
           "vectorize_batch"]

_LANE_BITS = 64  # double-precision lane


@dataclass(frozen=True)
class VectorizationResult:
    """Effect of SIMD fusion on a kernel's dynamic instruction stream.

    All scales are multipliers on the scalarized (trace) counts.
    """

    effective_lanes: float      # achieved reduction on fusable work
    instr_scale: float          # total dynamic instructions multiplier
    fp_scale: float             # fp instruction multiplier
    mem_scale: float            # memory instruction multiplier

    def __post_init__(self) -> None:
        if not 0 < self.instr_scale <= 1.0 + 1e-9:
            raise ValueError("instr_scale must be in (0, 1]")


#: Fusion at L lanes requires at least this many consecutive repetitions
#: of the static instruction per group, i.e. trip_count >= GATE * L
#: ("we require a basic block to be executed several times in a row").
_REPEAT_GATE = 2


def _fusion_at(trip_count: float, lanes: int) -> float:
    """Reduction factor fusing at exactly ``lanes`` lanes (gated)."""
    if lanes <= 1:
        return 1.0
    t = float(trip_count)
    if t < _REPEAT_GATE * lanes:
        return 1.0
    full_groups = math.floor(t / lanes)
    remainder = t - full_groups * lanes
    fused_instrs = full_groups + remainder
    if fused_instrs <= 0:
        return float(lanes)
    return max(1.0, t / fused_instrs)


def fusion_factor(trip_count: float, lanes: int) -> float:
    """Instruction-reduction factor for one loop nest on a unit with
    ``lanes`` lanes.

    A wide unit can always execute narrower fused operations, so the
    model takes the best gated reduction over power-of-two widths up to
    ``lanes``: short loops (LULESH) fuse at 128-bit on every machine but
    never profit from wider units, while long loops approach ``lanes``.
    """
    if trip_count < 1:
        raise ValueError("trip_count must be >= 1")
    if lanes <= 1:
        return 1.0
    best = 1.0
    width = 2
    while width <= lanes:
        best = max(best, _fusion_at(trip_count, width))
        width *= 2
    return best


def vectorize(sig: KernelSignature, vector_bits: int) -> VectorizationResult:
    """Apply the fusion model to a kernel for a target vector width.

    The trace is scalar-equivalent, so 64-bit width means no fusion at
    all (MEM+ configurations of Table II use 64-bit FPUs).
    """
    if vector_bits < _LANE_BITS:
        raise ValueError(f"vector width must be >= {_LANE_BITS} bits")
    lanes = vector_bits // _LANE_BITS
    r = fusion_factor(sig.trip_count, lanes)

    # Only the vectorizable fraction of fp and memory instructions fuses;
    # integer/branch/other bookkeeping stays scalar (loop control actually
    # shrinks a little with fusion, but MUSA's model keeps it, and so do we).
    vf = sig.vec_fraction
    fp_scale = (1.0 - vf) + vf / r
    mem_scale = (1.0 - vf) + vf / r

    m = sig.mix
    instr_scale = (
        m.fp * fp_scale
        + (m.load + m.store) * mem_scale
        + m.int_alu + m.branch + m.other
    )
    return VectorizationResult(
        effective_lanes=r,
        instr_scale=instr_scale,
        fp_scale=fp_scale,
        mem_scale=mem_scale,
    )


def vectorize_batch(
    sig: KernelSignature,
    vector_bits: Sequence[int],
    memo: Optional[Dict[Tuple[str, int], VectorizationResult]] = None,
) -> List[VectorizationResult]:
    """:func:`vectorize` over a configuration axis.

    The vector-width axis takes only a handful of distinct values per
    sweep, so the batch collapses to one exact scalar evaluation per
    distinct width, scattered back per configuration — results are
    bitwise-identical to per-config :func:`vectorize` calls.  ``memo``
    (keyed ``(kernel, width)``) lets a caller share the distinct-width
    evaluations across batches.
    """
    by_width: Dict[int, VectorizationResult] = {}
    for w in set(vector_bits):
        if memo is not None:
            key = (sig.name, w)
            if key not in memo:
                memo[key] = vectorize(sig, w)
            by_width[w] = memo[key]
        else:
            by_width[w] = vectorize(sig, w)
    return [by_width[w] for w in vector_bits]
