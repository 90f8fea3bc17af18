"""Detailed simulation of one compute phase on one node configuration.

This is MUSA's detailed mode for a rank-level compute phase: kernels
are timed with the interval-analysis core model, node-level bandwidth
contention is resolved against the *occupied* core count, per-task
durations are rebuilt (preserving the trace's intra-phase imbalance),
and the runtime scheduler replays task execution.  Two passes refine
the occupancy estimate: contention depends on how many cores are busy,
which depends on the schedule, which depends on contention.

Results carry the node-level event totals the power models consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..config.node import NodeConfig
from ..obs import get_metrics
from ..runtime.scheduler import PhaseResult, simulate_phase
from ..trace.detailed import DetailedTrace
from ..trace.events import ComputePhase
from ..uarch.core_model import KernelTiming, time_kernel
from ..uarch.cpu import resolve_contention

__all__ = ["PhaseDetail", "simulate_phase_detailed"]


@dataclass(frozen=True)
class PhaseDetail:
    """Detailed-mode outcome of one compute phase (whole node).

    Event totals aggregate over every task of the phase; ``busy_core_ns``
    is the sum of per-core busy time (for occupancy/power), and
    ``schedule`` the runtime-scheduler result.
    """

    makespan_ns: float
    busy_core_ns: float
    n_busy_cores: float          # effective concurrency used for sharing
    schedule: PhaseResult
    # node-level event totals for the phase
    instructions: float
    scalar_flops: float
    l1_accesses: float
    l2_accesses: float
    l3_accesses: float
    dram_accesses: float
    dram_bytes: float
    store_fraction: float        # of memory instructions
    row_hit_rate: float          # traffic-weighted
    bw_utilization: float        # of derated channel capacity
    timings: Tuple[KernelTiming, ...]

    @property
    def occupancy(self) -> float:
        if self.makespan_ns <= 0:
            return 1.0
        return self.busy_core_ns / (self.makespan_ns * self.schedule.n_cores)


def _imbalance_factors(phase: ComputePhase) -> np.ndarray:
    """Per-task duration multipliers preserving the trace's intra-phase
    imbalance, normalized per kernel (mean 1 over each kernel's tasks).

    Zero-work tasks (empty partitions in an irregular decomposition)
    carry no re-timeable work: they get factor 1.0 and are excluded
    from the per-kernel mean so they cannot skew their siblings.
    """
    n = len(phase.tasks)
    per_unit = np.array([t.duration_ns / t.work_units if t.work_units > 0
                         else 0.0 for t in phase.tasks])
    has_work = np.array([t.work_units > 0 for t in phase.tasks])
    factors = np.ones(n)
    kernels = {t.kernel for t in phase.tasks}
    for k in kernels:
        idx = [i for i, t in enumerate(phase.tasks)
               if t.kernel == k and has_work[i]]
        if not idx:
            continue
        mean = per_unit[idx].mean()
        if mean > 0:
            factors[idx] = per_unit[idx] / mean
    return factors


def simulate_phase_detailed(
    phase: ComputePhase,
    detailed: DetailedTrace,
    node: NodeConfig,
    collect_spans: bool = False,
    n_refine: int = 2,
    timing_cache: Optional[Dict] = None,
) -> PhaseDetail:
    """Simulate ``phase`` on ``node`` in detailed mode.

    ``timing_cache`` (a plain dict owned by the caller, usually
    :class:`~repro.core.musa.Musa`) memoizes resolved kernel timings by
    ``(kernel, node, share)`` — the full (hashable) NodeConfig, not its
    display label, so two distinct configurations that happen to render
    the same label can never share timings.  Phases reusing a kernel at the
    same occupancy — common, e.g. SP-MZ runs ``sp_solve`` in three of
    its four phases — then skip the interval-analysis + contention
    solve entirely; hits/misses are counted through :mod:`repro.obs`
    as ``phase_sim.kernel_memo.*``.
    """
    obs = get_metrics()
    obs.inc("phase_sim.calls")
    with obs.span("phase_sim.simulate"):
        return _simulate_phase_detailed(phase, detailed, node,
                                        collect_spans, n_refine,
                                        timing_cache)


def _simulate_phase_detailed(
    phase: ComputePhase,
    detailed: DetailedTrace,
    node: NodeConfig,
    collect_spans: bool,
    n_refine: int,
    timing_cache: Optional[Dict] = None,
) -> PhaseDetail:
    if n_refine < 1:
        raise ValueError("n_refine must be >= 1")
    tasks = phase.tasks
    if not tasks:
        sched = simulate_phase(phase, node.n_cores)
        return PhaseDetail(
            makespan_ns=sched.makespan_ns, busy_core_ns=float(sched.busy_ns.sum()),
            n_busy_cores=0.0, schedule=sched, instructions=0.0, scalar_flops=0.0,
            l1_accesses=0.0, l2_accesses=0.0, l3_accesses=0.0, dram_accesses=0.0,
            dram_bytes=0.0, store_fraction=0.0, row_hit_rate=0.0,
            bw_utilization=0.0, timings=(),
        )

    imb = _imbalance_factors(phase)
    work = np.array([t.work_units for t in tasks])
    kernel_names = sorted({t.kernel for t in tasks})

    # Initial concurrency estimate: can't exceed tasks or cores.
    n_busy = float(min(len(tasks), node.n_cores))

    sched: Optional[PhaseResult] = None
    timings: Dict[str, KernelTiming] = {}
    utilization = 0.0
    obs = get_metrics()
    for _ in range(n_refine):
        share = max(1, int(round(n_busy)))
        timings = {}
        utilization = 0.0
        for k in kernel_names:
            ckey = (k, node, share)
            if timing_cache is not None and ckey in timing_cache:
                obs.inc("phase_sim.kernel_memo.hit")
                timing, util = timing_cache[ckey]
            else:
                obs.inc("phase_sim.kernel_memo.miss")
                t0 = time_kernel(detailed[k], node, l3_share_cores=share)
                cont = resolve_contention(t0, share, node.memory)
                timing, util = cont.timing, cont.utilization
                if timing_cache is not None:
                    timing_cache[ckey] = (timing, util)
            timings[k] = timing
            utilization = max(utilization, util)
        durations = np.array([
            timings[t.kernel].duration_ns * t.work_units for t in tasks
        ]) * imb
        sched = simulate_phase(phase, node.n_cores,
                               task_durations_ns=durations.tolist(),
                               collect_spans=collect_spans)
        # Refine concurrency from the actual schedule: average busy cores
        # over the task-execution portion of the phase.
        exec_ns = max(sched.makespan_ns - sched.serial_ns, 1e-9)
        n_busy_new = min(
            float(node.n_cores),
            max(1.0, float(sched.busy_ns.sum()) / exec_ns),
        )
        if abs(n_busy_new - n_busy) < 0.5:
            n_busy = n_busy_new
            break
        n_busy = n_busy_new

    assert sched is not None
    # Node-level event totals.
    totals = {f: 0.0 for f in ("instructions", "scalar_flops", "l1", "l2",
                               "l3", "dram", "bytes")}
    row_hit_weighted = 0.0
    store_weighted = 0.0
    for t in tasks:
        timing = timings[t.kernel]
        sig = detailed[t.kernel]
        w = t.work_units
        totals["instructions"] += timing.instructions * w
        totals["scalar_flops"] += timing.scalar_flops * w
        totals["l1"] += timing.l1_accesses * w
        totals["l2"] += timing.l2_accesses * w
        totals["l3"] += timing.l3_accesses * w
        totals["dram"] += timing.dram_accesses * w
        totals["bytes"] += timing.dram_bytes * w
        row_hit_weighted += sig.row_hit_rate * timing.dram_bytes * w
        mem = sig.mix.mem
        store_weighted += (sig.mix.store / mem if mem > 0 else 0.0) \
            * timing.l1_accesses * w
    row_hit = row_hit_weighted / totals["bytes"] if totals["bytes"] else 0.0
    store_frac = store_weighted / totals["l1"] if totals["l1"] else 0.0

    return PhaseDetail(
        makespan_ns=sched.makespan_ns,
        busy_core_ns=float(sched.busy_ns.sum()),
        n_busy_cores=n_busy,
        schedule=sched,
        instructions=totals["instructions"],
        scalar_flops=totals["scalar_flops"],
        l1_accesses=totals["l1"],
        l2_accesses=totals["l2"],
        l3_accesses=totals["l3"],
        dram_accesses=totals["dram"],
        dram_bytes=totals["bytes"],
        store_fraction=store_frac,
        row_hit_rate=row_hit,
        bw_utilization=utilization,
        timings=tuple(timings[k] for k in kernel_names),
    )
