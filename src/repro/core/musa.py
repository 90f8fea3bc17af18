"""The MUSA facade: multi-scale simulation of one application.

One :class:`Musa` instance owns an application model and exposes the
paper's three simulation modes:

* **burst mode** (hardware-agnostic, Sec. V-A): runtime scheduling of
  the traced tasks on N cores, no microarchitecture — Fig. 2a/2b/3/4;
* **detailed mode** (Sec. V-B): per-phase interval-analysis timing with
  cache/bandwidth/power models for one :class:`NodeConfig`;
* **integrated runs**: detailed compute timings per node, either as
  the compute region alone (``fast``, the sweep default: communication
  is configuration-invariant, as in MUSA where the Dimemas parameters
  are fixed) or spliced into the full Dimemas-style replay, which adds
  communication (``replay``).

Phase-level results are memoized per (phase, node) so the 864-point
sweep re-simulates only what changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..apps.base import AppModel
from ..config.node import NodeConfig
from ..network.model import NetworkConfig, marenostrum4_network
from ..network.replay import ReplayResult, replay
from ..obs import get_metrics
from ..power.breakdown import PowerBreakdown
from ..power.drampower import DramPowerModel
from ..power.mcpat import McPatModel
from ..runtime.scheduler import PhaseResult, simulate_phase
from ..trace.burst import BurstTrace
from ..trace.events import ComputePhase
from ..util import LruDict
from .phase_sim import PhaseDetail, simulate_phase_detailed

__all__ = ["Musa", "RunResult"]


@dataclass(frozen=True)
class RunResult:
    """Integrated detailed-mode outcome for one (app, node) point."""

    app: str
    node: NodeConfig
    n_ranks: int
    time_ns: float
    power: PowerBreakdown
    energy_j: Optional[float]          # None for HBM (no energy data)
    mpki_l1: float
    mpki_l2: float
    mpki_l3: float
    gmem_req_per_s: float              # billions of DRAM requests / s / node
    bw_utilization: float              # peak over phases
    occupancy: float                   # busy core-time / total core-time

    def record(self) -> Dict:
        """Flat dict for :class:`~repro.core.results.ResultSet`."""
        ax = self.node.axis_values()
        return {
            "app": self.app,
            "core": ax["core"],
            "cache": ax["cache"],
            "memory": ax["memory"],
            "frequency": ax["frequency"],
            "vector": ax["vector"],
            "cores": ax["cores"],
            "time_ns": self.time_ns,
            "power_core_l1_w": self.power.core_l1_w,
            "power_l2_l3_w": self.power.l2_l3_w,
            "power_memory_w": self.power.memory_w,
            "power_total_w": self.power.total_w,
            "energy_j": self.energy_j,
            "mpki_l1": self.mpki_l1,
            "mpki_l2": self.mpki_l2,
            "mpki_l3": self.mpki_l3,
            "gmem_req_per_s": self.gmem_req_per_s,
            "bw_utilization": self.bw_utilization,
            "occupancy": self.occupancy,
        }


class Musa:
    """Multi-scale simulator for one application."""

    def __init__(
        self,
        app: AppModel,
        network: Optional[NetworkConfig] = None,
        mcpat: Optional[McPatModel] = None,
        drampower: Optional[DramPowerModel] = None,
        memo_cap: int = 16384,
    ) -> None:
        self.app = app
        self.network = network or marenostrum4_network()
        self.mcpat = mcpat or McPatModel()
        self.drampower = drampower or DramPowerModel()
        obs = get_metrics()
        obs.inc("musa.trace_gen")
        with obs.span("musa.trace_gen"):
            self.detailed = app.detailed_trace()
        #: one canonical iteration's phases, shared across ranks/iterations
        self.phases: Tuple[ComputePhase, ...] = app.canonical_phases()
        # Memo dicts are LRU-bounded (``memo_cap`` entries each) so a
        # long multi-app campaign's per-process caches stay flat in
        # memory; the default cap comfortably holds one app's full
        # 864-point space (phases x configs) without evicting.
        self._burst_cache: Dict[Tuple, PhaseResult] = LruDict(
            memo_cap, eviction_counter="musa.memo.evictions")
        self._detail_cache: Dict[Tuple, PhaseDetail] = LruDict(
            memo_cap, eviction_counter="musa.memo.evictions")
        self._trace_cache: Dict[Tuple, BurstTrace] = LruDict(
            memo_cap, eviction_counter="musa.memo.evictions")
        #: (kernel, node, share) -> resolved timing; shared across
        #: phases so kernels reused by several phases are timed once
        self._timing_cache: Dict[Tuple, Tuple] = LruDict(
            memo_cap, eviction_counter="musa.memo.evictions")

    # ------------------------------------------------------------------ burst

    def burst_phase(self, phase: ComputePhase, n_cores: int,
                    collect_spans: bool = False) -> PhaseResult:
        """Hardware-agnostic schedule of one phase (memoized)."""
        key = (id(phase), n_cores)
        if collect_spans:
            return simulate_phase(phase, n_cores, collect_spans=True)
        if key not in self._burst_cache:
            self._burst_cache[key] = simulate_phase(phase, n_cores)
        return self._burst_cache[key]

    def compute_region_makespan(self, n_cores: int) -> float:
        """Makespan of the representative compute region (Fig. 2a)."""
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        region = max(self.phases, key=lambda p: p.total_task_ns)
        return self.burst_phase(region, n_cores).makespan_ns

    def _burst_trace(self, n_ranks: int,
                     n_iterations: Optional[int]) -> BurstTrace:
        # ``None`` means the default: key both spellings to one trace,
        # so the replay tape cache (keyed on the trace) builds one tape.
        key = (n_ranks, self.app.resolve_iterations(n_iterations))
        if key not in self._trace_cache:
            self._trace_cache[key] = self.app.burst_trace(*key)
        return self._trace_cache[key]

    def simulate_burst_full(
        self,
        n_cores: int,
        n_ranks: int = 256,
        n_iterations: Optional[int] = None,
        collect_segments: bool = False,
    ) -> ReplayResult:
        """Full-application burst-mode run: scheduling + MPI replay
        (Fig. 2b / Fig. 4)."""
        trace = self._burst_trace(n_ranks, n_iterations)
        scales = self.app.rank_scales(n_ranks)

        def duration(rank: int, phase: ComputePhase) -> float:
            return self.burst_phase(phase, n_cores).makespan_ns * scales[rank]

        return replay(trace, self.network, duration,
                      collect_segments=collect_segments)

    # --------------------------------------------------------------- detailed

    def phase_detail(self, phase: ComputePhase,
                     node: NodeConfig) -> PhaseDetail:
        """Detailed-mode simulation of one phase (memoized per node)."""
        key = (id(phase), node.label)
        obs = get_metrics()
        if key not in self._detail_cache:
            obs.inc("musa.phase_detail.miss")
            self._detail_cache[key] = simulate_phase_detailed(
                phase, self.detailed, node,
                timing_cache=self._timing_cache)
        else:
            obs.inc("musa.phase_detail.hit")
        return self._detail_cache[key]

    def simulate_node(
        self,
        node: NodeConfig,
        n_ranks: int = 256,
        n_iterations: Optional[int] = None,
        mode: str = "fast",
    ) -> RunResult:
        """Integrated detailed run of the application's traced region.

        ``mode='fast'`` times the compute region only: per-phase
        detailed makespans along the rank-imbalance critical path.
        ``mode='replay'`` splices the same detailed timings into the
        full Dimemas-style replay, which adds communication; it runs on
        the reactive event-driven engine, usable at the paper's
        256-rank scale and reported through the ``replay.*`` metrics
        counters.  Communication is configuration-invariant, so
        the design-space figures (Figs. 5-9) and the sweep default use
        fast mode; the scaling study (Fig. 2b) replays burst-mode
        timings through :meth:`simulate_burst_full`.
        """
        if mode not in ("fast", "replay"):
            raise ValueError("mode must be 'fast' or 'replay'")
        obs = get_metrics()
        obs.inc("musa.simulate_node")
        with obs.span("musa.simulate_node"):
            return self._simulate_node(node, n_ranks, n_iterations, mode)

    def _simulate_node(
        self,
        node: NodeConfig,
        n_ranks: int,
        n_iterations: Optional[int],
        mode: str,
    ) -> RunResult:
        n_iter = self.app.resolve_iterations(n_iterations)
        details = [self.phase_detail(p, node) for p in self.phases]
        scales = self.app.rank_scales(n_ranks)
        max_scale = float(scales.max())
        compute_iter = sum(d.makespan_ns for d in details)

        if mode == "fast":
            total_ns = n_iter * (compute_iter * max_scale)
        else:
            trace = self._burst_trace(n_ranks, n_iter)
            by_id = {id(p): d for p, d in zip(self.phases, details)}

            def duration(rank: int, phase: ComputePhase) -> float:
                return by_id[id(phase)].makespan_ns * scales[rank]

            total_ns = replay(trace, self.network, duration).total_ns

        return self._assemble_result(node, n_ranks, n_iter, details,
                                     total_ns)

    # ----------------------------------------------------------------- power

    def _assemble_result(
        self,
        node: NodeConfig,
        n_ranks: int,
        n_iter: int,
        details,
        total_ns: float,
    ) -> RunResult:
        total_s = total_ns * 1e-9
        if not 0.0 < total_s < float("inf"):
            raise ValueError("run has non-positive or non-finite duration")

        # Event totals for the whole run (one node, mean-scale rank).
        agg = {k: 0.0 for k in ("instr", "flops", "l1", "l2", "l3", "dram",
                                "bytes")}
        core_dyn_j = 0.0
        l2l3_dyn_j = 0.0
        row_hit_num = 0.0
        store_num = 0.0
        busy_core_ns = 0.0
        for d in details:
            lanes_eff = (d.timings[0].vectorization.effective_lanes
                         if d.timings else 1.0)
            cj, lj = self.mcpat.dynamic_energy_j(
                node,
                instructions=d.instructions,
                scalar_flops=d.scalar_flops,
                l1_accesses=d.l1_accesses,
                l2_accesses=d.l2_accesses,
                l3_accesses=d.l3_accesses,
                effective_lanes=lanes_eff,
            )
            core_dyn_j += cj * n_iter
            l2l3_dyn_j += lj * n_iter
            for key, field in (("instr", "instructions"),
                               ("flops", "scalar_flops"),
                               ("l1", "l1_accesses"), ("l2", "l2_accesses"),
                               ("l3", "l3_accesses"), ("dram", "dram_accesses"),
                               ("bytes", "dram_bytes")):
                agg[key] += getattr(d, field) * n_iter
            row_hit_num += d.row_hit_rate * d.dram_bytes * n_iter
            store_num += d.store_fraction * d.dram_accesses * n_iter
            busy_core_ns += d.busy_core_ns * n_iter

        row_hit = row_hit_num / agg["bytes"] if agg["bytes"] else 0.0
        store_frac = store_num / agg["dram"] if agg["dram"] else 0.0

        # Core + L1: dynamic while busy, spin power while idle (OpenMP
        # workers busy-wait), leakage always, on all cores.
        leak_core = self.mcpat.core_l1_leakage_w(node) * node.n_cores
        busy_frac = min(1.0, busy_core_ns / (total_ns * node.n_cores))
        idle_cores = node.n_cores * (1.0 - busy_frac)
        core_l1_w = (core_dyn_j / total_s + leak_core
                     + idle_cores * self.mcpat.idle_spin_w(node))
        # L2 + L3: dynamic + SRAM leakage.
        l2_l3_w = l2l3_dyn_j / total_s + self.mcpat.l2_l3_leakage_w(node)
        # DRAM: command rates over the whole run.  Rates use the
        # line-granular traffic (64 B per column command), which is
        # conserved under SIMD fusion.
        lines_per_s = agg["bytes"] / 64.0 / total_s
        writes_per_s = lines_per_s * store_frac
        reads_per_s = lines_per_s * (1.0 - store_frac)
        dram = self.drampower.from_rates(node.memory, reads_per_s,
                                         writes_per_s, row_hit)
        power = PowerBreakdown(
            core_l1_w=core_l1_w,
            l2_l3_w=l2_l3_w,
            memory_w=None if dram is None else dram.total_w,
        )

        return RunResult(
            app=self.app.name,
            node=node,
            n_ranks=n_ranks,
            time_ns=total_ns,
            power=power,
            energy_j=power.energy_j(total_s),
            mpki_l1=1000.0 * agg["l2"] / agg["instr"] if agg["instr"] else 0.0,
            mpki_l2=1000.0 * agg["l3"] / agg["instr"] if agg["instr"] else 0.0,
            mpki_l3=1000.0 * agg["dram"] / agg["instr"] if agg["instr"] else 0.0,
            gmem_req_per_s=agg["bytes"] / 64.0 / total_ns,
            bw_utilization=max((d.bw_utilization for d in details),
                               default=0.0),
            occupancy=busy_core_ns / (total_ns * node.n_cores),
        )
