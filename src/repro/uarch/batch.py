"""Config-major batched kernel timing (vectorized over configurations).

The sweep evaluates every kernel signature against hundreds of node
configurations; the per-config scalar path spends most of its time in
Python call overhead for :func:`~repro.uarch.core_model.time_kernel`
and :func:`~repro.uarch.cpu.resolve_contention`.  This module lays the
configuration axis out as NumPy arrays (struct-of-arrays over
:class:`~repro.config.node.NodeConfig`) and evaluates all configs of a
batch with elementwise array arithmetic.

**Exactness contract** (enforced by the property suite): every batched
result is bitwise-identical to the scalar path, not merely close.

* SIMD fusion takes few distinct values per batch, so it is computed
  by the *scalar* model once per distinct width and scattered
  (:func:`~.vector.vectorize_batch`) — trivially exact; miss ratios
  are gathered from dense per-(kernel, hierarchy) tables indexed by L3
  share (:class:`~.hierarchy.MissTable`), whose cells are priced by
  the batched miss model, bitwise per geometry;
* :func:`time_kernel_batch` times several kernels at once over
  ``(kernels, configs)`` lanes, each per-kernel scalar a
  ``(kernels, 1)`` column, so one call serves a refine iteration;
* the interval-analysis formulas and the contention fixed point are
  replicated op-for-op: same operand order, same associativity, same
  float64 intermediates.  IEEE-754 elementwise ops are deterministic,
  so identical operation sequences give identical bits;
* the contention fixed point runs over ``(kernels, configs)`` lanes
  and converges per lane; an *active mask* freezes each lane at exactly
  the iteration where the scalar loop would ``break``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config.cache import LINE_BYTES, CacheHierarchy
from ..config.node import NodeConfig
from ..obs import get_metrics
from ..trace.kernel import KernelSignature
from .core_model import _MIN_EXPOSURE
from .cpu import _DAMPING, _MAX_ITER, _QUEUE_GAIN, _U_CLIP, dram_efficiency
from .hierarchy import MissTable, hierarchy_miss_profile_batch
from .vector import VectorizationResult, vectorize_batch

__all__ = [
    "ContentionBatch",
    "KernelTimingBatch",
    "NodeBatch",
    "resolve_contention_batch",
    "time_kernel_batch",
]


@dataclass(frozen=True)
class NodeBatch:
    """Struct-of-arrays view of a sequence of node configurations.

    Numeric fields become float64 columns (integer configuration values
    convert to float64 exactly); categorical fields (cache hierarchy,
    memory technology) stay as object lists for the dedupe-and-scatter
    sub-models.  Cache hierarchies are stored once each:
    ``hierarchy_idx[i]`` indexes config ``i``'s hierarchy in
    ``hierarchies``, so the miss model dedupes configs with integer
    arithmetic instead of hashing one dataclass per config.
    """

    nodes: Tuple[NodeConfig, ...]
    issue_width: np.ndarray
    n_fpu: np.ndarray
    n_alu: np.ndarray
    l1_ports: np.ndarray
    store_buffer: np.ndarray
    rob_size: np.ndarray
    max_mlp: np.ndarray
    frequency_ghz: np.ndarray
    l2_latency: np.ndarray
    l3_latency: np.ndarray
    idle_latency_ns: np.ndarray
    peak_bw_gbs: np.ndarray
    n_cores: np.ndarray
    vector_bits: Tuple[int, ...]
    hierarchies: Tuple[CacheHierarchy, ...]     # distinct, first-seen order
    hierarchy_idx: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)

    @classmethod
    def from_nodes(cls, nodes: Sequence[NodeConfig]) -> "NodeBatch":
        nodes = tuple(nodes)
        if not nodes:
            raise ValueError("NodeBatch needs at least one node")
        f64 = np.float64
        # Hash each distinct cache object once, not each config.
        distinct: Dict[CacheHierarchy, int] = {}
        by_id: Dict[int, int] = {}
        hierarchy_idx = np.empty(len(nodes), np.int64)
        for i, n in enumerate(nodes):
            j = by_id.get(id(n.cache))
            if j is None:
                j = by_id[id(n.cache)] = distinct.setdefault(
                    n.cache, len(distinct))
            hierarchy_idx[i] = j
        return cls(
            nodes=nodes,
            issue_width=np.array([n.core.issue_width for n in nodes], f64),
            n_fpu=np.array([n.core.n_fpu for n in nodes], f64),
            n_alu=np.array([n.core.n_alu for n in nodes], f64),
            l1_ports=np.array([n.core.l1_ports for n in nodes], f64),
            store_buffer=np.array([n.core.store_buffer for n in nodes], f64),
            rob_size=np.array([n.core.rob_size for n in nodes], f64),
            max_mlp=np.array([n.core.max_mlp for n in nodes], f64),
            frequency_ghz=np.array([n.frequency_ghz for n in nodes], f64),
            l2_latency=np.array(
                [n.cache.l2.latency_cycles for n in nodes], f64),
            l3_latency=np.array(
                [n.cache.l3.latency_cycles for n in nodes], f64),
            idle_latency_ns=np.array(
                [n.memory.idle_latency_ns for n in nodes], f64),
            peak_bw_gbs=np.array([n.memory.peak_bw_gbs for n in nodes], f64),
            n_cores=np.array([n.n_cores for n in nodes], np.int64),
            vector_bits=tuple(n.vector_bits for n in nodes),
            hierarchies=tuple(distinct),
            hierarchy_idx=hierarchy_idx,
        )


@dataclass(frozen=True)
class KernelTimingBatch:
    """Column-wise :class:`~repro.uarch.core_model.KernelTiming`.

    Every array has one entry per configuration of the originating
    :class:`NodeBatch`; scalar fields are configuration-invariant.
    """

    kernel: str
    base_cycles: np.ndarray
    l2_stall_cycles: np.ndarray
    l3_stall_cycles: np.ndarray
    mem_stall_cycles: np.ndarray
    instructions: np.ndarray
    scalar_flops: float
    l1_accesses: np.ndarray
    l2_accesses: np.ndarray
    l3_accesses: np.ndarray
    dram_accesses: np.ndarray
    dram_lines: np.ndarray
    frequency_ghz: np.ndarray
    row_hit_rate: float
    vectorizations: Tuple[VectorizationResult, ...]

    def __len__(self) -> int:
        return len(self.base_cycles)

    @property
    def cycles(self) -> np.ndarray:
        # Same left-to-right association as KernelTiming.cycles.
        return (self.base_cycles + self.l2_stall_cycles
                + self.l3_stall_cycles + self.mem_stall_cycles)

    @property
    def duration_ns(self) -> np.ndarray:
        return self.cycles / self.frequency_ghz

    @property
    def dram_bytes(self) -> np.ndarray:
        return self.dram_lines * LINE_BYTES

    def with_mem_stall_scaled(self, factors: np.ndarray) -> "KernelTimingBatch":
        return replace(self, mem_stall_cycles=self.mem_stall_cycles * factors)


def time_kernel_batch(
    sigs: Sequence[KernelSignature],
    batch: NodeBatch,
    shares: np.ndarray,
    mem_latency_ns: float = 0.0,
    miss_table: Optional[MissTable] = None,
    vec_memo: Optional[Dict[Tuple[str, int], VectorizationResult]] = None,
) -> List[KernelTimingBatch]:
    """Batched :func:`~repro.uarch.core_model.time_kernel` over
    (kernel, configuration) lanes.

    ``shares[j, i]`` is ``l3_share_cores`` for kernel ``sigs[j]`` on
    configuration ``i``.  Per-kernel scalars become ``(kernels, 1)``
    columns broadcast along the configuration axis, and the arithmetic
    mirrors the scalar function operation-for-operation (see the module
    docstring for why that yields bitwise equality).  Returns one
    :class:`KernelTimingBatch` per kernel, in input order, whose arrays
    are rows of the stacked lanes.
    """
    shares = np.asarray(shares, dtype=np.int64)
    vecs = [vectorize_batch(sig, batch.vector_bits, memo=vec_memo)
            for sig in sigs]
    miss_l1, miss_l2, miss_l3 = hierarchy_miss_profile_batch(
        sigs, batch.hierarchies, batch.hierarchy_idx, shares,
        table=miss_table)

    f64 = np.float64
    instr_scale = np.array([[v.instr_scale for v in vs] for vs in vecs], f64)
    fp_scale = np.array([[v.fp_scale for v in vs] for vs in vecs], f64)
    mem_scale = np.array([[v.mem_scale for v in vs] for vs in vecs], f64)

    def col(values) -> np.ndarray:
        return np.array(values, f64)[:, None]

    # Per-kernel scalars, each the Python float the scalar model uses.
    n0 = col([s.instr_per_unit for s in sigs])
    n0_fp = col([s.instr_per_unit * s.mix.fp for s in sigs])
    n0_mem = col([s.instr_per_unit * s.mix.mem for s in sigs])
    n0_store = col([s.instr_per_unit * s.mix.store for s in sigs])
    # n_int + n_br, with n_int = n0 * (int_alu + other), n_br = n0 * branch.
    n_int_br = col([s.instr_per_unit * (s.mix.int_alu + s.mix.other)
                    + s.instr_per_unit * s.mix.branch for s in sigs])
    ilp = col([s.ilp for s in sigs])
    mlp = col([s.mlp for s in sigs])
    prefetch_mlp = col([s.mlp * s.row_hit_rate for s in sigs])

    n_instr = n0 * instr_scale
    n_fp = n0_fp * fp_scale              # scalar: (n0 * m.fp) * fp_scale
    n_mem = n0_mem * mem_scale

    # --- base component (same operand order as the scalar model) -------------
    dispatch = n_instr / batch.issue_width
    dependency = n_instr / ilp
    fu_fp = n_fp / batch.n_fpu
    fu_mem = n_mem / batch.l1_ports
    store_ports = np.where(batch.store_buffer < 64, 1.0, 2.0)
    fu_store = (n0_store * mem_scale) / store_ports
    fu_int = n_int_br / batch.n_alu
    base = np.maximum(np.maximum(np.maximum(np.maximum(np.maximum(
        dispatch, dependency), fu_fp), fu_mem), fu_store), fu_int)

    # --- stall components -----------------------------------------------------
    with np.errstate(divide="ignore", invalid="ignore"):
        ipc_base = np.where(base > 0, n_instr / base, batch.issue_width)
    hide_window = batch.rob_size / np.maximum(np.minimum(ipc_base, 4.0), 1e-9)

    l2_acc = n_mem * miss_l1
    l3_acc = n_mem * miss_l2
    dram_acc = n_mem * miss_l3
    dram_lines_traffic = n0_mem * miss_l3

    l2_stall = l2_acc * np.maximum(batch.l2_latency - hide_window,
                                   batch.l2_latency * _MIN_EXPOSURE)
    l3_stall = l3_acc * np.maximum(batch.l3_latency - hide_window,
                                   batch.l3_latency * _MIN_EXPOSURE)

    if mem_latency_ns > 0:
        lat_ns = np.full(len(batch), f64(mem_latency_ns))
    else:
        lat_ns = batch.idle_latency_ns
    mem_lat_cycles = lat_ns * batch.frequency_ghz
    with np.errstate(divide="ignore", invalid="ignore"):
        miss_per_instr = np.where(n_instr > 0, dram_acc / n_instr, 0.0)
    window_mlp = np.maximum(1.0, batch.rob_size * miss_per_instr)
    mlp_eff = np.maximum(1.0, np.minimum(
        np.minimum(mlp, batch.max_mlp),
        np.maximum(window_mlp, prefetch_mlp)))
    mem_exposure = np.maximum(mem_lat_cycles - hide_window,
                              mem_lat_cycles * _MIN_EXPOSURE)
    mem_stall = dram_acc * mem_exposure / mlp_eff

    return [
        KernelTimingBatch(
            kernel=sig.name,
            base_cycles=base[j],
            l2_stall_cycles=l2_stall[j],
            l3_stall_cycles=l3_stall[j],
            mem_stall_cycles=mem_stall[j],
            instructions=n_instr[j],
            scalar_flops=sig.instr_per_unit * sig.mix.fp,
            l1_accesses=n_mem[j],
            l2_accesses=l2_acc[j],
            l3_accesses=l3_acc[j],
            dram_accesses=dram_acc[j],
            dram_lines=dram_lines_traffic[j],
            frequency_ghz=batch.frequency_ghz,
            row_hit_rate=sig.row_hit_rate,
            vectorizations=tuple(vs),
        )
        for j, (sig, vs) in enumerate(zip(sigs, vecs))
    ]


@dataclass(frozen=True)
class ContentionBatch:
    """Column-wise :class:`~repro.uarch.cpu.ContentionResult`."""

    timing: KernelTimingBatch
    utilization: np.ndarray
    achieved_bw_gbs: np.ndarray
    capacity_gbs: np.ndarray
    mem_stall_multiplier: np.ndarray


def resolve_contention_batch(
    timings: Sequence[KernelTimingBatch],
    n_busy_cores: Sequence[np.ndarray],
    batch: NodeBatch,
) -> List[ContentionBatch]:
    """Batched :func:`~repro.uarch.cpu.resolve_contention`, one fixed
    point for several kernels.

    ``timings[j]`` is a kernel's timing over ``batch`` and
    ``n_busy_cores[j][i]`` the occupied core count of configuration
    ``i`` for it.  The kernels stack into ``(kernels, configs)`` lanes —
    row hit rate, and so capacity, are per lane — and the damped fixed
    point runs once over all of them with an *active* mask: a lane that
    satisfies the scalar convergence test is assigned ``d_new`` and
    frozen — exactly where the scalar loop breaks — so every lane
    reproduces its scalar iteration sequence bit-for-bit, however long
    the other lanes run.  Lanes still moving after ``_MAX_ITER``
    iterations keep their last damped step, as the scalar loop does,
    and are counted under ``contention.unconverged``.  Returns one
    :class:`ContentionBatch` per kernel, in input order.
    """
    if not timings:
        return []
    n_busy = np.array([np.asarray(n, dtype=np.float64)
                       for n in n_busy_cores])
    if n_busy.shape != (len(timings), len(batch)):
        raise ValueError(
            f"expected {len(timings)} busy-core columns of {len(batch)}")
    if np.any(n_busy <= 0):
        raise ValueError("n_busy_cores must be positive")

    eff = np.array([dram_efficiency(t.row_hit_rate) for t in timings])
    capacity = batch.peak_bw_gbs * eff[:, None]
    bytes_per_unit = np.array([t.dram_bytes for t in timings])
    freq = np.array([t.frequency_ghz for t in timings])
    t_fixed = np.array([t.base_cycles + t.l2_stall_cycles
                        + t.l3_stall_cycles for t in timings])
    t_mem0 = np.array([t.mem_stall_cycles for t in timings])

    trivial = (bytes_per_unit <= 0) | (t_mem0 <= 0)
    active = ~trivial

    d = t_fixed + t_mem0
    # Scalar: n_busy * bytes / (d / freq), associating left to right.
    load = n_busy * bytes_per_unit
    keep = 1.0 - _DAMPING
    with np.errstate(divide="ignore", invalid="ignore"):
        d_floor = bytes_per_unit / (capacity / n_busy) * freq
        for _ in range(_MAX_ITER):
            if not active.any():
                break
            u = load / (d / freq) / capacity
            uc = np.minimum(u, _U_CLIP, out=u)
            inflate = 1.0 + _QUEUE_GAIN * uc * uc / (1.0 - uc)
            d_new = np.maximum(t_fixed + t_mem0 * inflate, d_floor)
            conv = np.abs(d_new - d) < 1e-9 * np.maximum(d, 1.0)
            np.copyto(d, np.where(conv, d_new, _DAMPING * d + keep * d_new),
                      where=active)
            active &= ~conv
        d = np.maximum(np.maximum(d, d_floor), t_fixed + t_mem0)
    unconverged = int(np.count_nonzero(active))
    if unconverged:
        # Lanes the scalar loop would also leave at the cap.
        get_metrics().inc("contention.unconverged", unconverged)
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = np.where(
            trivial, 1.0,
            np.maximum(1.0, (d - t_fixed) / np.where(trivial, 1.0, t_mem0)))
        achieved = np.where(
            trivial, 0.0, load / (d / freq))
        utilization = np.where(trivial, 0.0, achieved / capacity)

    return [
        ContentionBatch(
            timing=t.with_mem_stall_scaled(mult[j]),
            utilization=utilization[j],
            achieved_bw_gbs=achieved[j],
            capacity_gbs=capacity[j],
            mem_stall_multiplier=mult[j],
        )
        for j, t in enumerate(timings)
    ]
