"""Node-level multicore model: shared-memory bandwidth contention.

Per-core kernel timings from :mod:`.core_model` assume an unloaded
memory system.  When many cores run concurrently their combined DRAM
traffic contends for the channels; this module resolves the resulting
slowdown with a damped fixed-point iteration:

* channel *capacity* is the peak bandwidth derated by a row-locality
  efficiency factor (random streams pay activate/precharge overheads,
  as the event-level :mod:`repro.dram` controller shows);
* queueing delay inflates the DRAM-stall portion of each core's time as
  utilization grows (an M/M/1-flavoured term), with a hard throughput
  floor: a node can never move more bytes per second than the channels
  provide.

Only LULESH (and hypothetically-scaling SPMZ) generates enough demand
to saturate four DDR4 channels at 64 cores, reproducing Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.memory import MemoryConfig
from ..obs import get_metrics
from .core_model import KernelTiming

__all__ = ["ContentionResult", "dram_efficiency", "resolve_contention"]

#: Queueing-term strength and maximum utilization of the smooth region.
_QUEUE_GAIN = 0.8
_U_CLIP = 0.93
_MAX_ITER = 24
_DAMPING = 0.5


def dram_efficiency(row_hit_rate: float) -> float:
    """Achievable fraction of peak channel bandwidth.

    Streaming access (row-hit ~1) sustains ~75% of peak; fully random
    access (~0) pays ACT/PRE plus scheduling overheads on every access
    and sustains ~40%.  Linear in between — the conservative end of what
    the event-level controller measures, matching the paper's implied
    DDR4 efficiency (its 0.5 Grq/s LULESH node saturates four channels).
    """
    if not 0.0 <= row_hit_rate <= 1.0:
        raise ValueError("row_hit_rate must be in [0, 1]")
    return 0.40 + 0.35 * row_hit_rate


@dataclass(frozen=True)
class ContentionResult:
    """Outcome of the node-level bandwidth fixed point."""

    timing: KernelTiming        # per-core timing with inflated DRAM stalls
    utilization: float          # achieved / capacity (post-derating)
    achieved_bw_gbs: float      # aggregate node DRAM bandwidth
    capacity_gbs: float         # derated node capacity
    mem_stall_multiplier: float

    @property
    def saturated(self) -> bool:
        return self.utilization >= _U_CLIP


def resolve_contention(
    timing: KernelTiming,
    n_busy_cores: int,
    memory: MemoryConfig,
) -> ContentionResult:
    """Resolve bandwidth contention for ``n_busy_cores`` cores running
    the given kernel concurrently.

    The phase simulator calls this with the *occupied* core count (from
    the runtime schedule), so poorly-scaling applications never build up
    enough demand to saturate the channels — the Specfem3D-vs-LULESH
    asymmetry of Sec. V-B4.  A fixed point still moving after
    ``_MAX_ITER`` damped steps keeps its last step and is counted under
    ``contention.unconverged``.
    """
    if n_busy_cores <= 0:
        raise ValueError("n_busy_cores must be positive")

    capacity = memory.peak_bw_gbs * dram_efficiency(timing.row_hit_rate)
    bytes_per_unit = timing.dram_bytes
    freq = timing.frequency_ghz
    t_fixed = (timing.base_cycles + timing.l2_stall_cycles
               + timing.l3_stall_cycles)
    t_mem0 = timing.mem_stall_cycles

    if bytes_per_unit <= 0 or t_mem0 <= 0:
        return ContentionResult(timing, 0.0, 0.0, capacity, 1.0)

    # Fixed point on per-unit duration d (cycles).
    d = t_fixed + t_mem0
    # Hard floor: this core's bytes cannot beat its fair bandwidth share.
    d_floor = bytes_per_unit / (capacity / n_busy_cores) * freq  # ns->cycles
    for _ in range(_MAX_ITER):
        demand = n_busy_cores * bytes_per_unit / (d / freq)  # B/ns == GB/s
        u = demand / capacity
        uc = min(u, _U_CLIP)
        inflate = 1.0 + _QUEUE_GAIN * uc * uc / (1.0 - uc)
        d_new = max(t_fixed + t_mem0 * inflate, d_floor)
        if abs(d_new - d) < 1e-9 * max(d, 1.0):
            d = d_new
            break
        d = _DAMPING * d + (1.0 - _DAMPING) * d_new
    else:
        # Stopped at the cap: d is the last damped step, not a fixed point.
        get_metrics().inc("contention.unconverged")
    d = max(d, d_floor, t_fixed + t_mem0)

    # Guard against catastrophic cancellation when t_mem0 is tiny.
    mult = max(1.0, (d - t_fixed) / t_mem0)
    achieved = n_busy_cores * bytes_per_unit / (d / freq)
    return ContentionResult(
        timing=timing.with_mem_stall_scaled(mult),
        utilization=achieved / capacity,
        achieved_bw_gbs=achieved,
        capacity_gbs=capacity,
        mem_stall_multiplier=mult,
    )
