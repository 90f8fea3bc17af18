"""Batched config-major evaluation of the integrated fast and replay modes.

One sweep task used to be one ``(app, node)`` simulation; this module
evaluates one app against a whole *batch* of node configurations at
once.  Trace-derived quantities (imbalance factors, per-task work,
kernel membership) are invariant across configurations and precomputed
once per app, with every phase's task rows padded to the app's largest
task count (padded rows carry zero work).

The app's phases are evaluated in **one pass**.  A *lane* is one
(phase, config) pair; each of the ``N_REFINE`` refine iterations
stacks every still-active lane of every phase:

* kernels are timed column-wise over the configuration axis
  (:mod:`repro.uarch.batch`) on the batched cache-miss model, once per
  (kernel, share column) not yet in the call's kernel memo, and all of
  the iteration's misses share **one** contention fixed point
  (:func:`~repro.uarch.batch.resolve_contention_batch`);
* all lanes share **one** schedule replay
  (:func:`~repro.runtime.scheduler.simulate_phase_batch`, which takes a
  phase per lane and falls back to per-lane scalar scheduling only for
  general DAGs);
* the task-order event totals run once per app over the padded rows.

The MPI trace replay of ``mode='replay'`` runs column-wise too
(:mod:`repro.network.replay_batch`), with the order-free path executed
level-batched on a structural tape.

**Exactness contract**: for every configuration the batched evaluator
produces a record bitwise-identical to
``Musa.simulate_node(...).record()`` — same floats, not merely close
ones.  Every lane keeps the scalar float sequence of its own phase and
config: stacking only puts independent elementwise operations side by
side.  The refine loop reproduces the scalar iteration structure with a
per-lane *active* mask: once a lane passes the scalar convergence test
its share and occupancy freeze, and because the timing recompute at a
frozen share is deterministic and idempotent, frozen lanes ride along
through later iterations unchanged; a phase with no active lane left
drops out of the iteration.

Node-level totals are accumulated **in task order** (vector over the
config axis), never regrouped per kernel — float addition is not
associative and the contract is bitwise.  Each phase's total is read at
its own last task row, so the padding never enters a sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..config.node import NodeConfig
from ..network.replay_batch import replay_batch
from ..obs import get_metrics
from ..power.technology import energy_scale
from ..runtime.scheduler import simulate_phase_batch
from ..trace.events import ComputePhase
from ..uarch.batch import NodeBatch, resolve_contention_batch, time_kernel_batch
from ..util import LruDict
from .frame import ResultFrame
from .musa import Musa, RunResult
from .phase_sim import N_REFINE, _imbalance_factors

__all__ = ["BatchEvaluator", "RECORD_KEYS"]

#: The flat-record schema of ``RunResult.record()``, in its insertion
#: order — the frame path builds these columns directly.
RECORD_KEYS = (
    "app", "core", "cache", "memory", "frequency", "vector", "cores",
    "time_ns", "power_core_l1_w", "power_l2_l3_w", "power_memory_w",
    "power_total_w", "energy_j", "mpki_l1", "mpki_l2", "mpki_l3",
    "gmem_req_per_s", "bw_utilization", "occupancy",
)


@dataclass(frozen=True)
class _AppInvariants:
    """Configuration-independent task data of all phases, computed once
    per app.  Task rows are padded to the largest phase with zero work;
    a *slot* is one (phase, kernel) pair, in phase then kernel order."""

    phases: Tuple[ComputePhase, ...]
    n_tasks: np.ndarray              # (phases,)
    slots: Tuple[Tuple[int, str], ...]
    first_slot: np.ndarray           # (phases,) its first kernel's slot
    slot_of: np.ndarray              # (rows, phases) task slot, 0 when padded
    work: np.ndarray                 # (rows, phases) task work units
    imb: np.ndarray                  # (rows, phases) task imbalance factors
    last: np.ndarray                 # (phases,) last task row, 0 when empty
    row_hit_rate: np.ndarray         # (slots,) the slot kernel's row hit rate
    store_ratio: np.ndarray          # (slots,) store / mem of its mix


@dataclass
class _PhaseCols:
    """One phase's converged per-config columns (SoA form)."""

    makespan: np.ndarray         # per-config phase makespan (ns)
    busy: np.ndarray             # per-config sum of core busy time (ns)
    instr: np.ndarray
    flops: float                 # config-invariant scalar
    l1: np.ndarray
    l2: np.ndarray
    l3: np.ndarray
    dram: np.ndarray
    dram_bytes: np.ndarray
    store_frac: np.ndarray
    row_hit: np.ndarray
    util: np.ndarray
    lanes_eff: np.ndarray        # effective SIMD lanes of the first kernel


class BatchEvaluator:
    """Evaluates one app's integrated fast mode over config batches.

    Owns per-app memoization: miss profiles keyed on the full hashable
    ``(kernel, hierarchy, share)`` and SIMD fusion keyed on
    ``(kernel, width)`` persist for the evaluator's lifetime; resolved
    kernel-timing *columns* are memoized per :meth:`evaluate_frame` call by
    ``(kernel, share-column)``, which is what makes kernels shared by
    several phases (SP-MZ's ``sp_solve``) nearly free, mirroring the
    scalar path's ``(kernel, node, share)`` cache.
    """

    def __init__(self, musa: Musa, memo_cap: int = 16384) -> None:
        self.musa = musa
        self._app = self._app_invariants(musa)
        # LRU-bounded like Musa's memos (PR 4): a long-lived process
        # (the sweep service) evaluates unbounded config streams through
        # one evaluator, and these were the last unbounded memo dicts.
        self._miss_memo: Dict = LruDict(
            memo_cap, eviction_counter="batch.memo.evictions")
        self._vec_memo: Dict = LruDict(
            memo_cap, eviction_counter="batch.memo.evictions")

    @staticmethod
    def _app_invariants(musa: Musa) -> _AppInvariants:
        phases = tuple(musa.phases)
        n_tasks = np.array([len(p.tasks) for p in phases], np.int64)
        rows = int(n_tasks.max()) if len(phases) else 0
        slot_of = np.zeros((rows, len(phases)), np.int64)
        work = np.zeros((rows, len(phases)))
        imb = np.zeros((rows, len(phases)))
        slots: List[Tuple[int, str]] = []
        first_slot = np.zeros(len(phases), np.int64)
        for p, phase in enumerate(phases):
            tasks = phase.tasks
            if not tasks:
                continue
            kernel_names = sorted({t.kernel for t in tasks})
            pos = {k: len(slots) + i for i, k in enumerate(kernel_names)}
            first_slot[p] = len(slots)
            slots.extend((p, k) for k in kernel_names)
            n = len(tasks)
            slot_of[:n, p] = [pos[t.kernel] for t in tasks]
            work[:n, p] = [t.work_units for t in tasks]
            imb[:n, p] = _imbalance_factors(phase)
        sigs = [musa.detailed[k] for _, k in slots]
        return _AppInvariants(
            phases=phases, n_tasks=n_tasks, slots=tuple(slots),
            first_slot=first_slot, slot_of=slot_of, work=work, imb=imb,
            last=np.maximum(n_tasks - 1, 0),
            row_hit_rate=np.array([s.row_hit_rate for s in sigs]),
            store_ratio=np.array([s.mix.store / s.mix.mem if s.mix.mem > 0
                                  else 0.0 for s in sigs]),
        )

    # ------------------------------------------------------------------ public

    def evaluate(
        self,
        nodes: Sequence[NodeConfig],
        n_ranks: int = 256,
        mode: str = "fast",
    ) -> List[RunResult]:
        """Per-config :class:`RunResult` objects, in input order.

        The scalar reference: ``[musa.simulate_node(n, ...) for n in
        nodes]`` on this evaluator's :class:`Musa`.  Production paths
        (sweeps, serve, search) call :meth:`evaluate_frame`, which is
        bitwise-equal to this list's ``record()``s.
        """
        return [self.musa.simulate_node(n, n_ranks, mode=mode)
                for n in nodes]

    def evaluate_frame(
        self,
        nodes: Sequence[NodeConfig],
        n_ranks: int = 256,
        mode: str = "fast",
    ) -> ResultFrame:
        """Columnar results for every node, in input order.

        Both modes run the app's default iteration count; fast mode
        times the compute region only, and replay mode adds
        communication, as ``Musa.simulate_node`` does.

        The per-kernel compute timings are resolved column-wise over the
        whole batch, and with ``mode='replay'`` the Dimemas-style
        event-driven replay also runs *once* for the batch
        (:func:`repro.network.replay_batch.replay_batch`).  The same
        phase columns then feed a config-vectorized mirror of
        ``Musa._assemble_result``; the records never exist as dicts.
        The contract is *bitwise*: ``frame.to_records() ==
        [r.record() for r in evaluate(...)]`` and the canonical
        bytes/digests of every row are identical to the scalar
        reference's — every expression below reproduces the scalar
        float64 evaluation order (elementwise ``+ - * /`` and
        ``minimum``/``maximum`` are IEEE-identical between numpy and
        Python floats; cross-phase accumulation runs phase-by-phase in
        source order, never ``np.sum``'s pairwise tree; transcendental
        voltage scalings are computed per *unique* node key by the same
        scalar model code, then broadcast).
        """
        if mode not in ("fast", "replay"):
            raise ValueError("mode must be 'fast' or 'replay'")
        nodes = list(nodes)
        obs = get_metrics()
        obs.inc("musa.simulate_node", len(nodes))
        with obs.span("musa.batch_eval"):
            return self._evaluate_frame(nodes, n_ranks, mode)

    # ----------------------------------------------------------------- phases

    def _app_cols(self, nb: NodeBatch, kernel_memo: Dict) -> List[_PhaseCols]:
        """Every phase's converged columns, in one pass over the app.

        Each refine iteration stacks the still-active (phase, config)
        pairs — *lanes* — so the kernel-memo misses of all phases share
        one contention fixed point and all lanes one scheduler call.
        """
        obs = get_metrics()
        app = self._app
        n_phases = len(app.phases)
        n_configs = len(nb)
        obs.inc("phase_sim.calls", n_phases * n_configs)
        detailed = self.musa.detailed
        has_tasks = app.n_tasks > 0
        rows = app.work.shape[0]

        n_cores_f = nb.n_cores.astype(np.float64)
        # Scalar: float(min(len(tasks), node.n_cores)).
        n_busy = np.minimum(app.n_tasks.astype(np.float64)[:, None],
                            n_cores_f)
        active = np.repeat(has_tasks[:, None], n_configs, axis=1)
        share = np.zeros((n_phases, n_configs), np.int64)
        makespan = np.zeros((n_phases, n_configs))
        busy = np.zeros((n_phases, n_configs))
        util = np.zeros((n_phases, n_configs))
        timing: List = [None] * len(app.slots)
        for it in range(N_REFINE):
            live = active.any(axis=1)
            # Frozen lanes keep the share of the iteration they converged
            # in (NOT round(frozen n_busy): 2.4 -> 2.6 converges with
            # |diff| < 0.5 but the rounds differ).
            share = np.where(
                active, np.maximum(1.0, np.round(n_busy)).astype(np.int64),
                share)
            skeys = [share[p].tobytes() if live[p] else None
                     for p in range(n_phases)]

            # Kernel timings: memo hits, then one contention fixed point
            # over every miss of the iteration.
            misses: Dict = {}
            for p, k in app.slots:
                if not live[p]:
                    continue
                mk = (k, skeys[p])
                if mk in kernel_memo or mk in misses:
                    obs.inc("phase_sim.kernel_memo.hit", n_configs)
                    continue
                obs.inc("phase_sim.kernel_memo.miss", n_configs)
                misses[mk] = (time_kernel_batch(
                    detailed[k], nb, share[p], miss_memo=self._miss_memo,
                    vec_memo=self._vec_memo), share[p])
            if misses:
                resolved = resolve_contention_batch(
                    [tb for tb, _ in misses.values()],
                    [sh for _, sh in misses.values()], nb)
                for mk, cb in zip(misses, resolved):
                    kernel_memo[mk] = (cb.timing, cb.utilization)
            util[live] = 0.0
            for s, (p, k) in enumerate(app.slots):
                if live[p]:
                    timing[s], u_col = kernel_memo[(k, skeys[p])]
                    util[p] = np.maximum(util[p], u_col)

            # One scheduler call over every active lane; phases without
            # tasks join the first one (serial + critical) and are done.
            lanes = active if it else active | ~has_tasks[:, None]
            lane_p, lane_c = np.nonzero(lanes)
            if not len(lane_p):
                break
            # Per-task durations of every lane at once: the same (gather *
            # work) * imb float64 sequence the scalar path runs per
            # config, elementwise over lanes.
            dur_tab = (np.stack([t.duration_ns for t in timing])
                       if timing else np.zeros((0, n_configs)))
            durations = ((dur_tab[app.slot_of[:, lane_p], lane_c]
                          * app.work[:, lane_p]) * app.imb[:, lane_p])
            sched = simulate_phase_batch(
                [app.phases[p] for p in lane_p], nb.n_cores[lane_c],
                task_durations_ns=durations)
            makespan[lane_p, lane_c] = sched.makespan_ns
            busy[lane_p, lane_c] = sched.busy_sum_ns
            # Scalar: min(n_cores, max(1.0, busy / max(mk - serial,
            # 1e-9))) — IEEE-identical as elementwise minimum/maximum.
            ref = has_tasks[lane_p]
            lp, lc = lane_p[ref], lane_c[ref]
            exec_ns = np.maximum(
                sched.makespan_ns[ref] - sched.serial_ns[ref], 1e-9)
            n_busy_new = np.minimum(
                n_cores_f[lc],
                np.maximum(1.0, sched.busy_sum_ns[ref] / exec_ns))
            active[lp, lc] = ~(np.abs(n_busy_new - n_busy[lp, lc]) < 0.5)
            n_busy[lp, lc] = n_busy_new

        # ------- node-level event totals, accumulated in task order ----------
        # Per phase, sum over tasks of per_slot[slot[t]] * work[t], added
        # in task order (np.sum is pairwise): one running sum over every
        # phase's zero-padded task rows, each row one contiguous block of
        # all quantities, read at each phase's own last task.  Scalar
        # computes (sig.row_hit_rate * dram_bytes) * w and (store/mem *
        # l1_accesses) * w per task; hoist the per-kernel left factor,
        # keep the * w and the accumulation per task.  Flops are
        # config-invariant: the same sum in every column.
        totals = np.zeros((n_phases, 9, n_configs))
        if rows:
            per_slot = np.stack([np.stack([
                t.instructions, np.full(n_configs, t.scalar_flops),
                t.l1_accesses, t.l2_accesses, t.l3_accesses,
                t.dram_accesses, t.dram_bytes, r * t.dram_bytes,
                c * t.l1_accesses])
                for t, r, c in zip(timing, app.row_hit_rate,
                                   app.store_ratio)])
            ends: Dict[int, List[int]] = {}
            for p, r in enumerate(app.last.tolist()):
                ends.setdefault(r, []).append(p)
            work = app.work[:, :, None, None]
            acc = per_slot[app.slot_of[0]] * work[0]
            for r in range(rows):
                if r:
                    acc += per_slot[app.slot_of[r]] * work[r]
                done = ends.get(r)
                if done is not None:
                    totals[done] = acc[done]
        (tot_instr, tot_flops, tot_l1, tot_l2, tot_l3, tot_dram, tot_bytes,
         row_hit_w, store_w) = totals.transpose(1, 0, 2)
        tot_flops = tot_flops[:, 0]

        with np.errstate(divide="ignore", invalid="ignore"):
            row_hit = np.where(tot_bytes != 0.0, row_hit_w / tot_bytes, 0.0)
            store = np.where(tot_l1 != 0.0, store_w / tot_l1, 0.0)

        out = []
        for p in range(n_phases):
            if has_tasks[p]:
                # The scalar path reads effective lanes off the phase's
                # *first* kernel timing (``d.timings[0]``): the kernel
                # names are sorted, so that is the phase's first slot.
                lanes_eff = np.array(
                    [v.effective_lanes
                     for v in timing[app.first_slot[p]].vectorizations],
                    dtype=np.float64)
            else:
                lanes_eff = np.ones(n_configs)
            out.append(_PhaseCols(
                makespan=makespan[p], busy=busy[p],
                instr=tot_instr[p], flops=float(tot_flops[p]),
                l1=tot_l1[p], l2=tot_l2[p], l3=tot_l3[p],
                dram=tot_dram[p], dram_bytes=tot_bytes[p],
                store_frac=store[p], row_hit=row_hit[p], util=util[p],
                lanes_eff=lanes_eff,
            ))
        return out

    # ------------------------------------------------------------- frame path

    def _node_scalar_cols(self, nodes: Sequence[NodeConfig]) -> Dict:
        """Per-config columns of the node-level *scalar* model terms.

        Voltage scalings involve transcendentals (``** 2``, ``** 1.8``)
        whose numpy ufuncs are not guaranteed bit-identical to Python's
        ``**``; each term is therefore computed by the existing scalar
        model per unique node key (a handful of presets span any
        sweep) and broadcast — the broadcast cell *is* the Python float
        the scalar path uses.
        """
        mcpat = self.musa.mcpat
        dp = self.musa.drampower
        n = len(nodes)
        escale = np.empty(n)
        spin = np.empty(n)
        e_instr = np.empty(n)
        flop_factor = np.empty(n)
        leak_core = np.empty(n)
        l2l3_leak = np.empty(n)
        background = np.empty(n)
        energy_ok = np.empty(n, dtype=bool)
        m_f: Dict = {}
        m_core: Dict = {}
        m_vec: Dict = {}
        m_leak: Dict = {}
        m_sram: Dict = {}
        m_mem: Dict = {}
        for i, node in enumerate(nodes):
            f = node.frequency_ghz
            v = m_f.get(f)
            if v is None:
                v = (energy_scale(f), mcpat.idle_spin_w(node))
                m_f[f] = v
            escale[i], spin[i] = v

            c = node.core
            ei = m_core.get(c.label)
            if ei is None:
                ei = (mcpat.e_instr_base_nj
                      + mcpat.e_instr_ooo_nj * c.window_capability)
                m_core[c.label] = ei
            e_instr[i] = ei

            vb = node.vector_bits
            ff = m_vec.get(vb)
            if ff is None:
                ff = mcpat.flop_energy_factor(node)
                m_vec[vb] = ff
            flop_factor[i] = ff

            k = (c.label, vb, f)
            lw = m_leak.get(k)
            if lw is None:
                lw = mcpat.core_l1_leakage_w(node)
                m_leak[k] = lw
            # Scalar path: core_l1_leakage_w(node) * node.n_cores
            # (float * int, exact for any realistic core count).
            leak_core[i] = lw * node.n_cores

            k = (node.cache.label, node.n_cores, f)
            sw = m_sram.get(k)
            if sw is None:
                sw = mcpat.l2_l3_leakage_w(node)
                m_sram[k] = sw
            l2l3_leak[i] = sw

            mem = node.memory
            mv = m_mem.get(mem.label)
            if mv is None:
                mv = (mem.total_dimms * dp.background_w_per_dimm,
                      mem.energy_data_available)
                m_mem[mem.label] = mv
            background[i], energy_ok[i] = mv
        return {
            "escale": escale, "spin": spin, "e_instr": e_instr,
            "flop_factor": flop_factor, "leak_core": leak_core,
            "l2l3_leak": l2l3_leak, "background": background,
            "energy_ok": energy_ok,
        }

    def _evaluate_frame(self, nodes, n_ranks, mode):
        musa = self.musa
        mcpat = musa.mcpat
        dp = musa.drampower
        nb = NodeBatch.from_nodes(nodes)
        n_configs = len(nodes)
        n_iter = musa.app.resolve_iterations(None)
        scales = musa.app.rank_scales(n_ranks)
        max_scale = float(scales.max())

        kernel_memo: Dict = {}
        cols_per_phase = self._app_cols(nb, kernel_memo)
        compute_iter = np.zeros(n_configs)
        for pc in cols_per_phase:
            compute_iter = compute_iter + pc.makespan

        if mode == "fast":
            # Scalar: n_iter * (ci * max_scale), per config.
            total_ns = n_iter * (compute_iter * max_scale)
        else:
            # One config-vectorized replay pass for the whole batch: the
            # per-phase makespan columns scaled per rank reproduce the
            # scalar splice's float64 products bit for bit.
            trace = musa._burst_trace(n_ranks, n_iter)
            cols = {id(p): pc.makespan
                    for p, pc in zip(musa.phases, cols_per_phase)}

            def duration_batch(rank, phase):
                return cols[id(phase)] * scales[rank]

            total_ns = replay_batch(trace, musa.network, duration_batch,
                                    n_configs)

        if not ((0.0 < total_ns) & (total_ns < np.inf)).all():
            raise ValueError("run has non-positive or non-finite duration")
        total_s = total_ns * 1e-9
        sc = self._node_scalar_cols(nodes)
        n_cores_f = nb.n_cores.astype(np.float64)

        # -- dynamic_energy_j + the _assemble_result detail loop, columnwise;
        # accumulation runs phase-by-phase in source order (left-to-right
        # float addition, exactly the scalar `+=` sequence).
        core_dyn = np.zeros(n_configs)
        l2l3_dyn = np.zeros(n_configs)
        agg_instr = np.zeros(n_configs)
        agg_l2 = np.zeros(n_configs)
        agg_l3 = np.zeros(n_configs)
        agg_dram = np.zeros(n_configs)
        agg_bytes = np.zeros(n_configs)
        row_hit_num = np.zeros(n_configs)
        store_num = np.zeros(n_configs)
        busy_core_ns = np.zeros(n_configs)
        util_peak = np.zeros(n_configs)
        for pc in cols_per_phase:
            amort = np.where(pc.lanes_eff > 1.0,
                             mcpat.vector_amortization, 1.0)
            e_flop = (mcpat.e_flop_nj * amort) * sc["flop_factor"]
            other_ops = np.maximum(0.0, (pc.instr - pc.flops) - pc.l1)
            core_nj = ((pc.instr * sc["e_instr"] + pc.flops * e_flop)
                       + ((other_ops * mcpat.e_int_op_nj) * 0.5)) \
                + pc.l1 * mcpat.e_l1_access_nj
            l2l3_nj = (pc.l2 * mcpat.e_l2_access_nj
                       + pc.l3 * mcpat.e_l3_access_nj)
            core_dyn = core_dyn + ((core_nj * 1e-9) * sc["escale"]) * n_iter
            l2l3_dyn = l2l3_dyn + ((l2l3_nj * 1e-9) * sc["escale"]) * n_iter
            agg_instr = agg_instr + pc.instr * n_iter
            agg_l2 = agg_l2 + pc.l2 * n_iter
            agg_l3 = agg_l3 + pc.l3 * n_iter
            agg_dram = agg_dram + pc.dram * n_iter
            agg_bytes = agg_bytes + pc.dram_bytes * n_iter
            row_hit_num = row_hit_num + (pc.row_hit * pc.dram_bytes) * n_iter
            store_num = store_num + (pc.store_frac * pc.dram) * n_iter
            busy_core_ns = busy_core_ns + pc.busy * n_iter
            util_peak = np.maximum(util_peak, pc.util)

        with np.errstate(divide="ignore", invalid="ignore"):
            row_hit = np.where(agg_bytes != 0.0,
                               row_hit_num / agg_bytes, 0.0)
            store_frac = np.where(agg_dram != 0.0,
                                  store_num / agg_dram, 0.0)
            mpki_l1 = np.where(agg_instr != 0.0,
                               (1000.0 * agg_l2) / agg_instr, 0.0)
            mpki_l2 = np.where(agg_instr != 0.0,
                               (1000.0 * agg_l3) / agg_instr, 0.0)
            mpki_l3 = np.where(agg_instr != 0.0,
                               (1000.0 * agg_dram) / agg_instr, 0.0)

        busy_frac = np.minimum(1.0, busy_core_ns / (total_ns * n_cores_f))
        idle_cores = n_cores_f * (1.0 - busy_frac)
        core_l1_w = (core_dyn / total_s + sc["leak_core"]) \
            + idle_cores * sc["spin"]
        l2_l3_w = l2l3_dyn / total_s + sc["l2l3_leak"]

        lines_per_s = agg_bytes / 64.0 / total_s
        writes_per_s = lines_per_s * store_frac
        reads_per_s = lines_per_s * (1.0 - store_frac)
        # DramPowerModel.from_rates, columnwise; ``None`` (HBM) cells
        # masked out.
        n_col = reads_per_s + writes_per_s
        acts_per_s = n_col * (1.0 - row_hit)
        activate_w = (acts_per_s * dp.e_act_nj) * 1e-9
        rdwr_w = (reads_per_s * dp.e_rd_nj
                  + writes_per_s * dp.e_wr_nj) * 1e-9
        refresh_w = sc["background"] * dp.refresh_fraction
        memory_w = ((sc["background"] + activate_w) + rdwr_w) + refresh_w
        none_mask = ~sc["energy_ok"]
        memory_w = np.where(none_mask, 0.0, memory_w)
        power_total_w = np.where(
            none_mask, 0.0, (core_l1_w + l2_l3_w) + memory_w)
        energy_j = np.where(none_mask, 0.0, power_total_w * total_s)

        gmem = agg_bytes / 64.0 / total_ns
        occupancy = busy_core_ns / (total_ns * n_cores_f)

        app_col = np.empty(n_configs, dtype=object)
        app_col[:] = musa.app.name
        columns = {
            "app": app_col,
            "core": np.array([nd.core.label for nd in nodes], dtype=object),
            "cache": np.array([nd.cache.label for nd in nodes], dtype=object),
            "memory": np.array([nd.memory.label for nd in nodes],
                               dtype=object),
            "frequency": np.array([nd.frequency_ghz for nd in nodes],
                                  dtype=np.float64),
            "vector": np.array([nd.vector_bits for nd in nodes],
                               dtype=np.int64),
            "cores": np.asarray(nb.n_cores, dtype=np.int64),
            "time_ns": total_ns,
            "power_core_l1_w": core_l1_w,
            "power_l2_l3_w": l2_l3_w,
            "power_memory_w": (memory_w, none_mask),
            "power_total_w": (power_total_w, none_mask),
            "energy_j": (energy_j, none_mask),
            "mpki_l1": mpki_l1,
            "mpki_l2": mpki_l2,
            "mpki_l3": mpki_l3,
            "gmem_req_per_s": gmem,
            "bw_utilization": util_peak,
            "occupancy": occupancy,
        }
        if not none_mask.any():
            columns["power_memory_w"] = memory_w
            columns["power_total_w"] = power_total_w
            columns["energy_j"] = energy_j
        return ResultFrame.from_columns(RECORD_KEYS, columns)
