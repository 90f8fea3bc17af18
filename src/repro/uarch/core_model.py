"""Interval-analysis out-of-order core timing model (TaskSim substitute).

Per-kernel cycle counts are composed from first-order bounds, the
standard interval-analysis decomposition:

* a **base** component — the steady-state dispatch rate limited by issue
  width, the kernel's dataflow ILP, and functional-unit throughput
  (ALUs, FPUs, L1 ports, store-buffer drain);
* **short-stall** components for L2/L3 hits, partially hidden by the
  OoO window (a ROB that covers the latency at base IPC hides most of
  it);
* a **long-stall** component for DRAM accesses, divided by the effective
  memory-level parallelism: the minimum of the kernel's inherent MLP,
  the core's MSHR bound, and the number of misses the ROB window can
  hold — this is what makes big windows pay off for latency-bound codes
  (Specfem3D, Sec. V-B3) and not for bandwidth-bound ones.

SIMD fusion rescales the instruction stream first (:mod:`.vector`);
cache miss ratios come from :mod:`.hierarchy`.  All quantities are per
*work unit* so task durations follow from ``TaskRecord.work_units``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..config.cache import LINE_BYTES
from ..config.node import NodeConfig
from ..trace.kernel import KernelSignature
from .hierarchy import hierarchy_miss_profile
from .vector import VectorizationResult, vectorize

__all__ = ["KernelTiming", "time_kernel"]

#: Fraction of a stall that can never be hidden even by a huge window
#: (dependent loads, branch mispredict refills at the miss boundary).
_MIN_EXPOSURE = 0.18


@dataclass(frozen=True)
class KernelTiming:
    """Timing and event counts of one kernel, per work unit.

    Event counts feed the McPAT/DRAMPower substitutes; the cycle
    breakdown feeds the bandwidth-contention fixed point (only the
    ``mem_stall_cycles`` component is inflated by queueing).
    """

    kernel: str
    # cycle breakdown (per work unit, at the configured frequency)
    base_cycles: float
    l2_stall_cycles: float
    l3_stall_cycles: float
    mem_stall_cycles: float
    # event counts (per work unit)
    instructions: float        # fused dynamic instructions
    scalar_flops: float        # actual arithmetic work (fusion-invariant)
    l1_accesses: float         # memory instructions after fusion
    l2_accesses: float
    l3_accesses: float
    dram_accesses: float       # DRAM access *events* (fused granularity)
    dram_lines: float          # line-granular DRAM traffic (fusion-invariant)
    frequency_ghz: float
    row_hit_rate: float
    vectorization: VectorizationResult

    @property
    def cycles(self) -> float:
        return (self.base_cycles + self.l2_stall_cycles
                + self.l3_stall_cycles + self.mem_stall_cycles)

    @property
    def duration_ns(self) -> float:
        return self.cycles / self.frequency_ghz

    @property
    def dram_bytes(self) -> float:
        """Bytes moved from DRAM (conserved under SIMD fusion)."""
        return self.dram_lines * LINE_BYTES

    @property
    def ipc(self) -> float:
        c = self.cycles
        return self.instructions / c if c > 0 else 0.0

    def with_mem_stall_scaled(self, factor: float) -> "KernelTiming":
        """Timing with the DRAM-stall component inflated by ``factor``
        (bandwidth-contention queueing)."""
        if factor < 1.0:
            raise ValueError("contention can only slow execution down")
        return replace(self, mem_stall_cycles=self.mem_stall_cycles * factor)


def _exposure(latency_cycles: float, hide_window_cycles: float) -> float:
    """Visible stall of one miss of the given latency.

    A window that can keep ``hide_window_cycles`` of independent work in
    flight hides that much of the latency; a floor models inherently
    serial fractions (pointer chases, dependent uses at the head).
    """
    return max(latency_cycles - hide_window_cycles,
               latency_cycles * _MIN_EXPOSURE)


def time_kernel(
    sig: KernelSignature,
    node: NodeConfig,
    l3_share_cores: int = 1,
    mem_latency_ns: float = 0.0,
) -> KernelTiming:
    """Time one kernel on one core of ``node``.

    ``l3_share_cores`` is the number of cores concurrently sharing the
    L3 (occupied cores).  ``mem_latency_ns`` overrides the unloaded
    memory latency (0 = take it from the node's memory config); the
    node-level model passes a queueing-inflated value on iteration.
    """
    core = node.core
    vec = vectorize(sig, node.vector_bits)
    miss = hierarchy_miss_profile(sig, node.cache, l3_share_cores=l3_share_cores)

    n0 = sig.instr_per_unit
    m = sig.mix
    n_instr = n0 * vec.instr_scale
    n_fp = n0 * m.fp * vec.fp_scale
    n_mem = n0 * m.mem * vec.mem_scale
    n_int = n0 * (m.int_alu + m.other)
    n_br = n0 * m.branch

    # --- base component: throughput bounds -----------------------------------
    dispatch = n_instr / core.issue_width
    dependency = n_instr / sig.ilp
    fu_fp = n_fp / core.n_fpu
    fu_mem = n_mem / core.l1_ports
    # Small store buffers drain stores one per cycle; larger ones two.
    store_ports = 1 if core.store_buffer < 64 else 2
    fu_store = (n0 * m.store * vec.mem_scale) / store_ports
    fu_int = (n_int + n_br) / core.n_alu
    base = max(dispatch, dependency, fu_fp, fu_mem, fu_store, fu_int)

    # --- stall components -----------------------------------------------------
    ipc_base = n_instr / base if base > 0 else core.issue_width
    # The window hides latency for the time it takes to refill the ROB
    # with independent work.  The drain rate is capped at 4/cycle —
    # beyond that, rename/commit and L1 ports bound how fast useful work
    # enters the window — which also keeps hiding (near-)monotone in
    # core class (a raw rob/ipc would make wider cores hide *less*).
    hide_window = core.rob_size / max(min(ipc_base, 4.0), 1e-9)

    # Cache accesses and their latency events scale with the *fused*
    # memory-instruction count — MUSA's fusion model fuses memory
    # operations like arithmetic ones (Sec. III; the authors note this
    # "may overestimate the vectorization impact", and we reproduce that
    # behaviour; see bench_ablations for the traffic-conserving variant).
    l2_acc = n_mem * miss.miss_l1
    l3_acc = n_mem * miss.miss_l2
    dram_acc = n_mem * miss.miss_l3
    # DRAM *bytes* are conserved under fusion ("its size is doubled to
    # account for memory bandwidth"): a fused access moves R x 8 bytes.
    dram_lines_traffic = n0 * m.mem * miss.miss_l3

    l2_stall = l2_acc * _exposure(node.cache.l2.latency_cycles, hide_window)
    l3_stall = l3_acc * _exposure(node.cache.l3.latency_cycles, hide_window)

    lat_ns = mem_latency_ns if mem_latency_ns > 0 else node.memory.idle_latency_ns
    mem_lat_cycles = lat_ns * node.frequency_ghz
    # Effective MLP: kernel dataflow and MSHRs cap it; it is *achieved*
    # either by the ROB window holding several misses (OoO) or by the
    # hardware prefetcher running ahead on spatially-regular streams
    # (row-locality is the proxy for prefetchability) — streaming codes
    # keep high MLP even on small windows (LULESH, Sec. V-B3).
    miss_per_instr = dram_acc / n_instr if n_instr > 0 else 0.0
    window_mlp = max(1.0, core.rob_size * miss_per_instr)
    prefetch_mlp = sig.mlp * sig.row_hit_rate
    mlp_eff = max(1.0, min(sig.mlp, core.max_mlp,
                           max(window_mlp, prefetch_mlp)))
    mem_stall = dram_acc * _exposure(mem_lat_cycles, hide_window) / mlp_eff

    return KernelTiming(
        kernel=sig.name,
        base_cycles=base,
        l2_stall_cycles=l2_stall,
        l3_stall_cycles=l3_stall,
        mem_stall_cycles=mem_stall,
        instructions=n_instr,
        scalar_flops=n0 * m.fp,
        l1_accesses=n_mem,
        l2_accesses=l2_acc,
        l3_accesses=l3_acc,
        dram_accesses=dram_acc,
        dram_lines=dram_lines_traffic,
        frequency_ghz=node.frequency_ghz,
        row_hit_rate=sig.row_hit_rate,
        vectorization=vec,
    )
