"""The pinned benchmark registry.

Micro benchmarks time one vectorized hot path in isolation; macro
benchmarks time the integrated engine at paper scale.  Every benchmark
carries an **identity oracle** against the retained scalar path it
replaced — bit-identity, not tolerance — so the regression gate can
never trade correctness for speed, and declares the :mod:`repro.obs`
counters its hot path must move, so an instrumentation rename is caught
by the same gate.

Workloads are pinned (fixed app, trace, design space, rank count, and
deterministic per-config scale vectors) so a ledger trend line measures
the *code*, not the workload.  The ``smoke`` tier shrinks spaces and
rank counts for CI; identity oracles stay exhaustive there precisely
because the workloads are small.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..apps import APP_NAMES, get_app
from ..config import (
    CACHE_LABELS,
    DesignSpace,
    axis_linspace,
    axis_range,
    cache_preset,
    range_design_space,
    smoke_design_space,
)
from ..core import merge_journal, run_sweep
from ..core.batch import BatchEvaluator
from ..core.musa import Musa
from ..network.model import NetworkConfig
from ..network.replay import replay
from ..network.replay_batch import replay_batch
from ..obs import get_metrics
from ..runtime.scheduler import simulate_phase, simulate_phase_batch
from ..uarch.hierarchy import (
    hierarchy_miss_profile,
    hierarchy_miss_profile_batch,
)
from .harness import Benchmark, BenchCase

__all__ = ["REGISTRY", "get_benchmarks", "SMOKE_SPACE", "REQUIRED_COUNTERS"]

#: The CI smoke design space (8 configurations), shared by the smoke
#: tiers and the CLI smoke sweeps.
SMOKE_SPACE = smoke_design_space()

#: Every obs counter some benchmark's harness contract pins.  A rename
#: of any of these is a breaking change: the bench gate, the CLI metrics
#: summary and the CI assertions all read them by name.
REQUIRED_COUNTERS = (
    "miss.batch.geometries",
    "sched.batch.fast",
    "replay.batch.array_events",
    "replay.batch.driver.array",
    "replay.batch.lockstep_events",
    "replay.batch.driver.lockstep",
    "replay.batch.peeled_configs",
    "replay.events",
    "sweep.batch.configs",
    "sweep.shards",
    "search.evaluated",
    "store.block.put",
    "store.block.records",
)


def _replay_results_equal(a, b) -> Optional[str]:
    """Bit-identity check between two ``ReplayResult``s."""
    if a.n_messages != b.n_messages or a.bytes_sent != b.bytes_sent:
        return (f"message accounting differs: {a.n_messages}/{a.bytes_sent}"
                f" vs {b.n_messages}/{b.bytes_sent}")
    if float(a.total_ns) != float(b.total_ns):
        return f"total_ns differs: {a.total_ns!r} vs {b.total_ns!r}"
    for field in ("compute_ns", "p2p_ns", "collective_ns"):
        if not np.array_equal(np.asarray(getattr(a, field), dtype=float),
                              np.asarray(getattr(b, field), dtype=float)):
            return f"{field} columns differ"
    return None


def _records_equal(records, scalar, what: str) -> Optional[str]:
    """``records`` (frame records) against scalar ``RunResult``s."""
    for i, (r, s) in enumerate(zip(records, scalar)):
        if r != s.record():
            return f"{what}: config {i} differs from the scalar path"
    if len(records) != len(scalar):
        return f"{what}: length mismatch"
    return None


def _sample_indices(n: int, k: int) -> List[int]:
    stride = max(1, n // k)
    return list(range(0, n, stride))[:k]


def _finite_net(net: NetworkConfig, n_buses: int) -> NetworkConfig:
    return NetworkConfig(
        latency_us=net.latency_us, bandwidth_gbs=net.bandwidth_gbs,
        cpu_overhead_us=net.cpu_overhead_us, n_buses=n_buses,
        eager_threshold_bytes=net.eager_threshold_bytes)


def _cfg_scales(n: int) -> np.ndarray:
    """Deterministic per-config duration perturbation (pinned workload)."""
    return 1.0 + (np.arange(n, dtype=np.float64) % 97) * 1e-3


# -- micro benchmarks --------------------------------------------------------


def _build_miss_model(tier: str) -> BenchCase:
    detailed = get_app("lulesh").detailed_trace()
    sigs = [detailed[k] for k in detailed.names()]
    if tier == "smoke":
        shares = (1, 8, 32, 64)
    else:
        shares = tuple(range(1, 65))
    presets = [cache_preset(lbl) for lbl in CACHE_LABELS]
    hierarchies = [h for h in presets for _ in shares]
    share_col = [s for _ in presets for s in shares]
    # Inner repetition lifts one timed sample well above timer noise
    # (a single pass over the pairs is ~0.5 ms).
    inner = 10

    def run():
        out = None
        for _ in range(inner):
            out = [hierarchy_miss_profile_batch(sig, hierarchies, share_col)
                   for sig in sigs]
        return out

    def oracle() -> Optional[str]:
        for sig in sigs:
            batched = hierarchy_miss_profile_batch(sig, hierarchies,
                                                   share_col)
            for i, (h, s) in enumerate(zip(hierarchies, share_col)):
                ref = hierarchy_miss_profile(sig, h, l3_share_cores=s)
                got = batched[i]
                if (got.miss_l1, got.miss_l2, got.miss_l3) != \
                        (ref.miss_l1, ref.miss_l2, ref.miss_l3):
                    return (f"kernel {sig.name!r} pair ({i}) differs from "
                            f"scalar hierarchy_miss_profile")
        return None

    return BenchCase(
        run=run, oracle=oracle,
        meta={"app": "lulesh", "n_kernels": len(sigs),
              "n_pairs": len(hierarchies), "inner": inner},
        required_counters=("miss.batch.geometries",))


def _build_phase_sched(tier: str) -> BenchCase:
    musa = Musa(get_app("lulesh"))
    phase = musa.app.representative_phase()
    n_cfg = 32 if tier == "smoke" else 864
    n_cores = np.where(np.arange(n_cfg) % 2 == 0, 32, 64).astype(np.int64)
    scales = _cfg_scales(n_cfg)
    inner = 4 if tier == "smoke" else 3

    def run():
        out = None
        for _ in range(inner):
            out = simulate_phase_batch(phase, n_cores, scales, scales)
        return out

    def oracle() -> Optional[str]:
        batched = simulate_phase_batch(phase, n_cores, scales, scales)
        sample = (range(n_cfg) if tier == "smoke"
                  else _sample_indices(n_cfg, 32))
        for i in sample:
            ref = simulate_phase(phase, int(n_cores[i]), float(scales[i]),
                                 float(scales[i]))
            got = batched[i]
            if (got.makespan_ns != ref.makespan_ns
                    or got.serial_ns != ref.serial_ns
                    or not np.array_equal(got.busy_ns, ref.busy_ns)):
                return f"config {i} differs from scalar simulate_phase"
        return None

    return BenchCase(
        run=run, oracle=oracle,
        meta={"app": "lulesh", "n_configs": n_cfg,
              "n_tasks": len(phase.tasks), "inner": inner},
        required_counters=("sched.batch.fast",))


def _replay_workload(tier: str, n_ranks_full: int, n_cfg_full: int,
                     n_ranks_smoke: int, n_cfg_smoke: int):
    """Shared pinned workload for the replay micro benchmarks."""
    musa = Musa(get_app("lulesh"))
    if tier == "smoke":
        n_ranks, n_cfg = n_ranks_smoke, n_cfg_smoke
    else:
        n_ranks, n_cfg = n_ranks_full, n_cfg_full
    trace = musa._burst_trace(n_ranks, 1)
    rank_scales = musa.app.rank_scales(n_ranks)
    phase_ns = {id(p): musa.burst_phase(p, 64).makespan_ns
                for p in musa.phases}
    cfg = _cfg_scales(n_cfg)

    def dur_batch(rank, phase):
        return phase_ns[id(phase)] * rank_scales[rank] * cfg

    def dur_scalar(c):
        return lambda rank, phase, _c=c: (
            phase_ns[id(phase)] * rank_scales[rank] * cfg[_c])

    return musa, trace, n_ranks, n_cfg, dur_batch, dur_scalar


def _build_tape_replay(tier: str) -> BenchCase:
    musa, trace, n_ranks, n_cfg, dur_batch, dur_scalar = _replay_workload(
        tier, 256, 864, 16, 24)
    net = musa.network  # unlimited bus pool: the order-free array path
    # The smoke workload is sub-millisecond; repeat it so timer noise
    # can't swamp a real regression at the gate's 10% threshold.
    inner = 8 if tier == "smoke" else 1

    def run():
        out = None
        for _ in range(inner):
            out = replay_batch(trace, net, dur_batch, n_cfg)
        return out

    def oracle() -> Optional[str]:
        array = replay_batch(trace, net, dur_batch, n_cfg)
        for i in _sample_indices(n_cfg, 4):
            ref = replay(trace, net, dur_scalar(i))
            err = _replay_results_equal(array[i], ref)
            if err:
                return f"array vs scalar replay, config {i}: {err}"
        return None

    return BenchCase(
        run=run, oracle=oracle,
        meta={"app": "lulesh", "n_ranks": n_ranks, "n_configs": n_cfg,
              "n_events": sum(len(rt.events) for rt in trace.ranks)},
        # driver.array must move: a silent tape bail-out runs the
        # worklist driver instead, and may not time the path this
        # benchmark claims to measure.
        required_counters=("replay.batch.array_events",
                           "replay.batch.driver.array"),
        record_counters=("replay.batch.driver.array",
                         "replay.batch.driver.worklist",
                         "replay.batch.array_fallbacks"))


def _build_bus_arbitration(tier: str) -> BenchCase:
    musa, trace, n_ranks, n_cfg, dur_batch, dur_scalar = _replay_workload(
        tier, 16, 32, 8, 8)
    net = _finite_net(musa.network, n_buses=8)

    def run():
        return replay_batch(trace, net, dur_batch, n_cfg)

    def oracle() -> Optional[str]:
        obs = get_metrics()
        peeled0 = obs.counter("replay.batch.peeled_configs")
        batched = replay_batch(trace, net, dur_batch, n_cfg)
        peeled = obs.counter("replay.batch.peeled_configs") - peeled0
        if peeled > 2:
            return (f"peel storm: {peeled}/{n_cfg} configs left the "
                    f"vectorized lockstep path (bound is 2)")
        for i in range(n_cfg):
            ref = replay(trace, net, dur_scalar(i))
            err = _replay_results_equal(batched[i], ref)
            if err:
                return f"fork-lockstep vs scalar replay, config {i}: {err}"
        return None

    return BenchCase(
        run=run, oracle=oracle,
        meta={"app": "lulesh", "n_ranks": n_ranks, "n_configs": n_cfg,
              "n_buses": 8},
        required_counters=("replay.batch.lockstep_events",
                           "replay.batch.driver.lockstep"),
        record_counters=("replay.batch.driver.lockstep",
                         "replay.batch.forked_groups",
                         "replay.batch.peeled_configs"))


def _build_bus_lockstep(tier: str) -> BenchCase:
    # Uniform per-config scales: every column shares one (clock, rank)
    # step order, so the whole batch runs as a single zero-divergence
    # lockstep group — this pins the cost of the pure vectorized
    # finite-bus arbitration machinery (key-matrix argmin + batched
    # step), with no forking in the measurement.
    musa, trace, n_ranks, n_cfg, _, _ = _replay_workload(
        tier, 16, 32, 8, 8)
    net = _finite_net(musa.network, n_buses=8)
    rank_scales = musa.app.rank_scales(n_ranks)
    phase_ns = {id(p): musa.burst_phase(p, 64).makespan_ns
                for p in musa.phases}
    ones = np.ones(n_cfg)

    def dur_batch(rank, phase):
        return phase_ns[id(phase)] * rank_scales[rank] * ones

    def run():
        return replay_batch(trace, net, dur_batch, n_cfg)

    def oracle() -> Optional[str]:
        obs = get_metrics()
        forked0 = obs.counter("replay.batch.forked_groups")
        peeled0 = obs.counter("replay.batch.peeled_configs")
        batched = replay_batch(trace, net, dur_batch, n_cfg)
        if obs.counter("replay.batch.forked_groups") != forked0:
            return "uniform-scale batch diverged: lockstep group forked"
        if obs.counter("replay.batch.peeled_configs") != peeled0:
            return "uniform-scale batch peeled configs to the scalar engine"
        ref = replay(trace, net,
                     lambda r, p: phase_ns[id(p)] * rank_scales[r])
        for i in (0, n_cfg - 1):
            err = _replay_results_equal(batched[i], ref)
            if err:
                return f"lockstep vs scalar replay, config {i}: {err}"
        return None

    return BenchCase(
        run=run, oracle=oracle,
        meta={"app": "lulesh", "n_ranks": n_ranks, "n_configs": n_cfg,
              "n_buses": 8, "uniform_scales": True},
        required_counters=("replay.batch.lockstep_events",
                           "replay.batch.driver.lockstep"),
        record_counters=("replay.batch.driver.lockstep",
                         "replay.batch.forked_groups",
                         "replay.batch.peeled_configs"))


def _build_event_engine(tier: str) -> BenchCase:
    musa, trace, n_ranks, _, dur_batch, dur_scalar = _replay_workload(
        tier, 256, 1, 32, 1)
    net = musa.network
    duration = dur_scalar(0)

    def run():
        return replay(trace, net, duration)

    def oracle() -> Optional[str]:
        # A one-column batch runs the array tape: the production replay
        # path must reproduce the scalar event engine bit for bit.
        event = replay(trace, net, duration)
        array = replay_batch(trace, net, dur_batch, 1)[0]
        return _replay_results_equal(array, event)

    return BenchCase(
        run=run, oracle=oracle,
        meta={"app": "lulesh", "n_ranks": n_ranks,
              "n_events": sum(len(rt.events) for rt in trace.ranks)},
        required_counters=("replay.events",))


# -- macro benchmarks --------------------------------------------------------


def _build_fast_sweep(tier: str) -> BenchCase:
    space = SMOKE_SPACE if tier == "smoke" else DesignSpace()
    nodes = list(space)
    ev = BatchEvaluator(Musa(get_app("lulesh")))
    ev.evaluate_frame(nodes)  # cold pass: memos warm before timing

    def run():
        return ev.evaluate_frame(nodes)

    def oracle() -> Optional[str]:
        batched = ev.evaluate_frame(nodes).to_records()
        sample = (range(len(nodes)) if tier == "smoke"
                  else _sample_indices(len(nodes), 12))
        scalar_musa = Musa(get_app("lulesh"))
        scalar = [scalar_musa.simulate_node(nodes[i]) for i in sample]
        return _records_equal([batched[i] for i in sample], scalar,
                              "fast-mode eval")

    return BenchCase(
        run=run, oracle=oracle,
        meta={"app": "lulesh", "n_configs": len(nodes)},
        required_counters=("miss.batch.geometries", "sched.batch.fast"))


def _build_replay_sweep(tier: str) -> BenchCase:
    if tier == "smoke":
        space, n_ranks, n_sample = SMOKE_SPACE, 16, 4
    else:
        space, n_ranks, n_sample = DesignSpace(), 256, 3
    nodes = list(space)
    ev = BatchEvaluator(Musa(get_app("lulesh")))
    ev.evaluate_frame(nodes, n_ranks=n_ranks, mode="replay")  # cold pass

    def run():
        return ev.evaluate_frame(nodes, n_ranks=n_ranks, mode="replay")

    def oracle() -> Optional[str]:
        batched = ev.evaluate_frame(nodes, n_ranks=n_ranks,
                                    mode="replay").to_records()
        sample = _sample_indices(len(nodes), n_sample)
        scalar_musa = Musa(get_app("lulesh"))
        scalar = [scalar_musa.simulate_node(nodes[i], n_ranks=n_ranks,
                                            mode="replay") for i in sample]
        return _records_equal([batched[i] for i in sample], scalar,
                              "replay-mode eval")

    return BenchCase(
        run=run, oracle=oracle,
        meta={"app": "lulesh", "n_configs": len(nodes), "n_ranks": n_ranks},
        required_counters=("replay.batch.array_events",
                           "replay.batch.driver.array"),
        record_counters=("replay.batch.driver.array",
                         "replay.batch.driver.worklist",
                         "replay.batch.array_fallbacks"))


def _build_serve_query(tier: str) -> BenchCase:
    import tempfile
    import time as _time
    from pathlib import Path

    from ..core.canon import canonical_dumps
    from ..core.store import ResultStore
    from ..serve import ServeState

    space = SMOKE_SPACE if tier == "smoke" else DesignSpace()
    store = ResultStore(Path(tempfile.mkdtemp()) / "bench_store.jsonl")
    state = ServeState(store, code_version="bench")
    query = {"kind": "sweep", "apps": ["lulesh"],
             "space": "smoke" if tier == "smoke" else "full"}
    t0 = _time.perf_counter()
    cold = state.handle(query)  # fills the store; timed runs are warm
    cold_s = _time.perf_counter() - t0

    def run():
        return state.handle(query)

    def oracle() -> Optional[str]:
        warm = state.handle(query)
        if warm["served"]["evaluated"] != 0:
            return (f"warm query touched the engine "
                    f"({warm['served']['evaluated']} evaluations)")
        if warm["served"]["store_hits"] != len(space):
            return (f"warm query hit {warm['served']['store_hits']} of "
                    f"{len(space)} points in the store")
        if canonical_dumps(warm["result"]) != canonical_dumps(cold["result"]):
            return "warm store-assembled result differs from the cold run"
        direct = run_sweep(["lulesh"], space, processes=1)
        if warm["result"]["records"] != list(direct):
            return "served records differ from a direct run_sweep"
        return None

    return BenchCase(
        run=run, oracle=oracle,
        meta={"app": "lulesh", "n_configs": len(space), "cold_s": cold_s},
        required_counters=("store.hit", "serve.requests"),
        record_counters=("store.hit", "store.miss", "store.put",
                         "serve.singleflight.coalesced"))


def _build_campaign(tier: str) -> BenchCase:
    if tier == "smoke":
        apps, space = ["spmz", "hydro"], SMOKE_SPACE
    else:
        apps, space = list(APP_NAMES), DesignSpace()

    def run():
        return run_sweep(apps, space, processes=1)

    def oracle() -> Optional[str]:
        batched = run_sweep(apps, space, processes=1)
        scalar = run_sweep(apps, space, processes=1, batch=False)
        if json.dumps(list(batched), sort_keys=True) != \
                json.dumps(list(scalar), sort_keys=True):
            return "batched campaign differs from the scalar sweep"
        return None

    return BenchCase(
        run=run, oracle=oracle,
        meta={"apps": list(apps), "n_configs": len(space)},
        required_counters=("sweep.batch.configs",))


def _build_sharded_sweep(tier: str) -> BenchCase:
    import tempfile
    import time as _time
    from pathlib import Path

    from ..core.canon import canonical_dumps

    if tier == "smoke":
        apps, space, processes, chunk_size = ["lulesh"], SMOKE_SPACE, 2, 1
    else:
        # Range-generated space: 4608 lazily-indexed configurations —
        # big enough that worker startup amortizes and the shard
        # scheduler's scaling is what the trend line measures.
        apps = ["lulesh"]
        space = range_design_space(
            frequencies=axis_linspace(1.0, 4.0, 8),
            core_counts=axis_range(8, 64, 8))
        processes, chunk_size = 4, None
    t0 = _time.perf_counter()
    inline = run_sweep(apps, space, processes=1)
    inline_s = _time.perf_counter() - t0
    inline_text = canonical_dumps(list(inline))

    def run():
        return run_sweep(apps, space, processes=processes,
                         chunk_size=chunk_size)

    def oracle() -> Optional[str]:
        pooled = run_sweep(apps, space, processes=processes,
                           chunk_size=chunk_size)
        if canonical_dumps(list(pooled)) != inline_text:
            return "work-stealing pooled sweep differs from inline"
        # Shard invariance: two disjoint shard journals, merged, must
        # resume into the canonical ResultSet byte-for-byte with zero
        # re-evaluation.
        with tempfile.TemporaryDirectory() as d:
            paths = [Path(d) / f"s{k}.jsonl" for k in range(2)]
            for k, p in enumerate(paths):
                run_sweep(apps, space, processes=1, resume=p,
                          shard=f"{k}/2")
            merged = Path(d) / "merged.jsonl"
            merge_journal(paths, merged)
            obs = get_metrics()
            done0 = obs.counter("sweep.tasks.completed")
            resumed = run_sweep(apps, space, processes=1, resume=merged)
            if obs.counter("sweep.tasks.completed") != done0:
                return "resume from merged shards re-evaluated tasks"
            if canonical_dumps(list(resumed)) != inline_text:
                return ("merged 2-shard journals did not reproduce the "
                        "canonical ResultSet byte-for-byte")
        return None

    return BenchCase(
        run=run, oracle=oracle,
        meta={"apps": list(apps), "n_configs": len(space),
              "processes": processes, "inline_s": inline_s},
        required_counters=("sweep.shards",),
        record_counters=("sweep.steals", "sweep.worker.lost",
                         "sweep.ctx.spawn"))


def _build_result_plane(tier: str) -> BenchCase:
    import tempfile
    from pathlib import Path

    from ..core.canon import canonical_dumps
    from ..core.checkpoint import Journal
    from ..core.results import ResultSet
    from ..core.store import ResultStore, store_key

    space = SMOKE_SPACE if tier == "smoke" else DesignSpace()
    nodes = list(space)
    mode, n_ranks, cv = "fast", 256, "bench"
    prov = {"engine": "bench"}
    ev = BatchEvaluator(Musa(get_app("lulesh")))
    ev.evaluate_frame(nodes)  # cold pass: memos warm before timing
    d = Path(tempfile.mkdtemp())
    seq = [0]

    def columnar():
        """One end-to-end pass of the columnar data plane: evaluate as
        a frame, journal it as one block line, content-address it into
        the store as one block line, serve it as a lazy ResultSet."""
        seq[0] += 1
        frame = ev.evaluate_frame(nodes)
        with Journal(d / f"col{seq[0]}.jsonl") as j:
            j.append_frame(frame)
        with ResultStore(d / f"col_store{seq[0]}.jsonl") as store:
            keys = store.put_frame(frame, mode, n_ranks, cv, prov)
        served = ResultSet()
        served.add_frame(frame)
        return keys, served.canonical_text(), seq[0]

    def per_record_plane():
        """The per-record reference: scalar records, one journal line,
        one store_key digest and one store line per config."""
        records = [r.record() for r in ev.evaluate(nodes)]
        keys = []
        with Journal(d / "ref.jsonl") as j:
            for r in records:
                j.append(r)
        with ResultStore(d / "ref_store.jsonl") as store:
            for node, r in zip(nodes, records):
                cfg = node.axis_values()
                key = store_key("lulesh", cfg, mode, n_ranks, cv)
                keys.append(key)
                store.put(key, r, {"app": "lulesh", "config": cfg,
                                   "mode": mode, "ranks": n_ranks,
                                   "code_version": cv}, prov)
        served = ResultSet()
        for r in records:
            served.add(r, copy=False)
        return keys, served.canonical_text()

    ref_keys, ref_text = per_record_plane()

    def run():
        return columnar()

    def oracle() -> Optional[str]:
        col_keys, col_text, col_run = columnar()
        if list(col_keys) != ref_keys:
            return "columnar store keys differ from per-record store_key"
        if col_text != ref_text:
            return ("columnar served ResultSet differs byte-for-byte "
                    "from the per-record scalar records")
        col_store = ResultStore(d / f"col_store{col_run}.jsonl")
        ref_store = ResultStore(d / "ref_store.jsonl")
        for k in ref_keys:
            if canonical_dumps(col_store.get(k)) != \
                    canonical_dumps(ref_store.get(k)):
                return (f"store entry {k[:12]} differs between the "
                        f"columnar and per-record stores")
        # Cross-resume identity: the one-block journal and the
        # per-record journal must canonicalize to the same bytes.
        merged = []
        for src in (d / f"col{col_run}.jsonl", d / "ref.jsonl"):
            out = src.with_suffix(".merged")
            merge_journal([src], out, collect=False)
            merged.append(out.read_bytes())
        if merged[0] != merged[1]:
            return ("block journal and per-record journal merge to "
                    "different canonical bytes")
        return None

    return BenchCase(
        run=run, oracle=oracle,
        meta={"app": "lulesh", "n_configs": len(nodes), "mode": mode,
              "n_ranks": n_ranks},
        required_counters=("store.block.put", "store.block.records"),
        record_counters=("store.block.put", "store.block.records",
                         "store.put"))


def _build_search_dse(tier: str) -> BenchCase:
    from ..analysis.pareto import pareto_front
    from ..analysis.search import search_front
    from ..core.results import ResultSet

    if tier == "smoke":
        rec_space = DesignSpace(frequencies=(1.5, 2.5),
                                core_counts=(32, 64))       # 288 points
        big_space = range_design_space(
            frequencies=axis_linspace(1.0, 4.0, 16),
            core_counts=axis_range(4, 128, 4))              # 36 864
    else:
        rec_space = DesignSpace()                           # 864 points
        big_space = range_design_space()                    # 140 616
    ev = BatchEvaluator(Musa(get_app("lulesh")))
    exhaustive = ev.evaluate_frame(list(rec_space)).to_records()
    ref_front = pareto_front(ResultSet(exhaustive), "lulesh", cores=None)
    ref_key = [(p.x, p.y) for p in ref_front]

    def run():
        return search_front("lulesh", big_space, evaluator=ev, seed=0)

    def oracle() -> Optional[str]:
        # (a) Exact front recovery where the exhaustive answer exists.
        r = search_front("lulesh", rec_space, evaluator=ev, seed=0,
                         max_evals=len(rec_space), patience=2)
        if [(p.x, p.y) for p in r.front] != ref_key:
            return (f"search front ({len(r.front)} pts) differs from the "
                    f"exhaustive front ({len(ref_front)} pts) on the "
                    f"{len(rec_space)}-point space")
        # (b) Budget: the range space must converge within 20%.
        big = search_front("lulesh", big_space, evaluator=ev, seed=0)
        if big.evaluated_fraction > 0.2:
            return (f"range-space search used "
                    f"{big.evaluated_fraction:.1%} of {len(big_space)} "
                    f"points (budget is 20%)")
        if not big.converged:
            return "range-space search hit the budget without converging"
        if not big.front:
            return "range-space search returned an empty front"
        return None

    return BenchCase(
        run=run, oracle=oracle,
        meta={"app": "lulesh", "n_rec_space": len(rec_space),
              "n_big_space": len(big_space)},
        required_counters=("search.evaluated",),
        record_counters=("search.rounds", "search.front_size",
                         "search.surrogate_rank_calls"))


REGISTRY: Dict[str, Benchmark] = {b.id: b for b in (
    Benchmark("micro.miss_model", "micro",
              "batched set-associative miss model vs scalar "
              "hierarchy_miss_profile", _build_miss_model),
    Benchmark("micro.phase_sched", "micro",
              "config-vectorized phase scheduler vs scalar simulate_phase",
              _build_phase_sched),
    Benchmark("micro.tape_replay", "micro",
              "level-batched array replay driver vs scalar replay",
              _build_tape_replay),
    Benchmark("micro.bus_arbitration", "micro",
              "finite-bus fork-on-divergence lockstep batch replay vs "
              "scalar replay", _build_bus_arbitration),
    Benchmark("micro.bus_lockstep", "micro",
              "finite-bus zero-divergence lockstep batch replay "
              "(uniform scales) vs scalar replay", _build_bus_lockstep),
    Benchmark("micro.event_engine", "micro",
              "scalar event-driven replay engine vs one-column array "
              "replay", _build_event_engine),
    Benchmark("macro.fast_sweep", "macro",
              "full-space fast-mode evaluate_frame (864 configs, warm)",
              _build_fast_sweep),
    Benchmark("macro.replay_sweep", "macro",
              "full-space replay-mode evaluate_frame (864x256 ranks)",
              _build_replay_sweep),
    Benchmark("macro.campaign", "macro",
              "all-apps full-space batched campaign through run_sweep",
              _build_campaign),
    Benchmark("macro.serve_query", "macro",
              "warm store-backed serve query (pure store assembly) vs "
              "cold evaluation", _build_serve_query),
    Benchmark("macro.result_plane", "macro",
              "columnar evaluate->journal->store->serve result plane vs "
              "per-record writes of scalar records (bit-identity)",
              _build_result_plane),
    Benchmark("macro.sharded_sweep", "macro",
              "work-stealing pooled sweep over a range-generated space "
              "vs inline, plus 2-shard journal-merge invariance",
              _build_sharded_sweep),
    Benchmark("macro.search_dse", "macro",
              "active Pareto search: exact front recovery vs exhaustive, "
              "<=20% budget on the range space", _build_search_dse),
)}


def get_benchmarks(ids: Optional[Sequence[str]] = None) -> List[Benchmark]:
    """Resolve benchmark ids (exact, or ``micro``/``macro`` kind, or a
    prefix ending in ``.``) to registry entries, preserving registry
    order and erroring on unknown names."""
    if not ids:
        return list(REGISTRY.values())
    picked: List[Benchmark] = []
    for want in ids:
        matches = [b for b in REGISTRY.values()
                   if b.id == want or b.kind == want
                   or (want.endswith(".") and b.id.startswith(want))]
        if not matches:
            known = ", ".join(REGISTRY)
            raise KeyError(f"unknown benchmark {want!r}; known: {known}")
        for b in matches:
            if b not in picked:
                picked.append(b)
    return picked
