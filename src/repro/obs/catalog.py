"""The one list of metric names the package emits.

Each :class:`Metric` is one counter or timer name, or a name family
written ``prefix.*``.  An entry may also carry the key
:func:`repro.obs.summarize` reports it under in ``derived``, plus the
row label and display group of
:func:`repro.analysis.format_metrics_summary`'s table.  Keyed entries
appear in ``derived`` key order, which is also the table's row order.
A keyed entry without a name is a value ``summarize()`` computes.

Table rule: rows of the first group always print; a row of any other
group prints when any non-sparse value of its group is nonzero; a
sparse row (it needs no group) prints only when its own value is
nonzero.

Registering a new counter takes one entry here; a test fails for any
emitted name that has none.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

__all__ = ["CATALOG", "DERIVED", "Metric", "lookup"]


class Metric(NamedTuple):
    name: Optional[str]
    help: str
    key: Optional[str] = None
    label: Optional[str] = None
    group: Optional[str] = None
    sparse: bool = False


CATALOG = (
    # -- run: the sweep scheduler and journal (always shown) ------------
    Metric("sweep.tasks.completed", "tasks evaluated and recorded",
           "tasks_completed", "tasks completed", "run"),
    Metric("sweep.tasks.skipped", "tasks already in the resume journal",
           "tasks_skipped", "tasks skipped (resume)", "run"),
    Metric("sweep.tasks.failed", "tasks stubbed after exhausting retries",
           "tasks_failed", "tasks failed", "run"),
    Metric("sweep.retries", "failed attempts sent back for a retry",
           "retries", "retries", "run"),
    Metric("sweep.faults", "failed task attempts",
           "faults", "faults observed", "run"),
    Metric("checkpoint.duplicates_dropped", "repeated journal records",
           "duplicates_dropped", "journal duplicates dropped", "run"),
    Metric(None, "total seconds of the sweep.run timer",
           "sweep_wall_s", "sweep wall time [s]", "run"),
    Metric(None, "completed tasks per sweep wall second",
           "tasks_per_second", "throughput [tasks/s]", "run"),
    Metric(None, "phase-detail and kernel-timing memo hits over lookups",
           "memo_hit_rate", "memo hit rate (overall)", "run"),
    Metric(None, "phase-detail memo hits over lookups",
           "phase_memo_hit_rate", "  phase-detail component", "run"),
    Metric(None, "kernel-timing memo hits over lookups",
           "kernel_memo_hit_rate", "  kernel-timing component", "run"),
    Metric("sweep.batch.configs", "configs through the batched evaluator",
           "batched_configs"),
    Metric("sweep.batch.fallback", "batches retried config by config",
           "batch_fallbacks"),
    # -- replay: event-driven MPI replay --------------------------------
    Metric("replay.events", "trace events replayed",
           "replay_events", "replay events processed", "replay"),
    Metric("replay.wakeups", "blocked ranks re-examined",
           "replay_wakeups", "replay wakeups", "replay"),
    Metric("replay.messages", "point-to-point messages matched",
           "replay_messages", "replay messages", "replay"),
    Metric("replay.bus_waits", "transfers delayed by the finite bus pool",
           "replay_bus_waits", "replay bus waits", "replay"),
    Metric("replay.batch.array_events", "config-events priced on the tape",
           "replay_array_events", "replay array events", "replay"),
    Metric("replay.tape.builds", "replay tapes built (tape-cache misses)",
           "replay_tape_builds", "replay tapes built", "replay"),
    Metric("replay.tape.evictions", "tapes dropped from the tape cache"),
    Metric("replay.tape.workspace_bytes",
           "bytes allocated for tape workspaces"),
    Metric("replay.batch.array_fallbacks", "traces the tape cannot encode"),
    Metric("replay.batch.driver.array", "batched replays run on the tape"),
    Metric("replay.batch.driver.scalar", "batched replays run per config"),
    # -- engine: miss model, phase scheduler, memo caches ---------------
    Metric("miss.batch.geometries", "cache geometries the miss model priced",
           "miss_batch_geometries", "miss-model geometries evaluated",
           sparse=True),
    Metric("miss.table.builds", "survival tables built or rebuilt"),
    Metric("miss.table.evictions", "survival tables dropped from the cache"),
    Metric("contention.unconverged",
           "contention fixed points stopped at the iteration cap"),
    Metric("sched.batch.fast", "config columns the vector scheduler ran",
           "sched_batch_fast", "scheduler columns vectorized", "sched"),
    Metric("sched.batch.fallbacks", "config columns simulated one by one",
           "sched_batch_fallbacks", "scheduler columns fallback", "sched"),
    Metric("sched.structure.evictions", "phase structures dropped"),
    Metric("musa.memo.evictions", "entries dropped from Musa's memos",
           "memo_evictions", "memo evictions", sparse=True),
    Metric("batch.memo.evictions", "entries dropped from batch memos",
           "batch_memo_evictions", "batch memo evictions", sparse=True),
    Metric("musa.phase_detail.hit", "phase-detail memo hits"),
    Metric("musa.phase_detail.miss", "phase-detail memo misses"),
    Metric("phase_sim.kernel_memo.hit", "kernel-timing memo hits"),
    Metric("phase_sim.kernel_memo.miss", "kernel-timing memo misses"),
    Metric("phase_sim.calls", "phases simulated in detail"),
    Metric("musa.simulate_node", "design points simulated; also a timer"),
    Metric("musa.trace_gen", "burst traces generated; also a timer"),
    # -- store: the content-addressed result store ----------------------
    Metric("store.hit", "point lookups answered from the store",
           "store_hits", "result-store hits", "store"),
    Metric("store.miss", "point lookups the store could not answer",
           "store_misses", "result-store misses", "store"),
    Metric(None, "store hits over lookups",
           "store_hit_rate", "result-store hit rate", "store"),
    Metric("store.put", "records written to the store", "store_puts"),
    Metric("store.invalidated", "entries removed by invalidation",
           "store_invalidated"),
    Metric("store.block.put", "columnar block lines written"),
    Metric("store.block.records", "records written in block lines"),
    Metric("store.block.loaded", "block lines read on open"),
    Metric("store.entries_loaded", "entries indexed on open"),
    Metric("store.corrupt_lines", "unreadable store lines skipped"),
    Metric("store.duplicates_dropped", "repeated store entries dropped"),
    # -- serve: the query front end -------------------------------------
    Metric("serve.requests", "queries handled, answer-cache hits included",
           "serve_requests", "serve requests", "serve"),
    Metric("serve.singleflight.coalesced", "queries joined to one in flight",
           "serve_coalesced", "serve queries coalesced", "serve"),
    Metric("serve.query.*", "queries handled, per query kind"),
    Metric("serve.errors", "requests answered with an error"),
    Metric("serve.cache.hit", "queries answered from the answer cache"),
    Metric("serve.cache.miss", "queries the answer cache could not answer"),
    Metric("serve.cache.evictions", "answers dropped from the answer cache"),
    # -- shards: the sweep's shard queue and worker pool ----------------
    Metric("sweep.timeout_unavailable", "task budgets run without SIGALRM",
           "timeout_unavailable", "timeouts unavailable", sparse=True),
    Metric("sweep.shards", "work shards dealt",
           "sweep_shards", "work shards dealt", "shards"),
    Metric("sweep.worker.lost", "worker processes that died",
           "sweep_workers_lost", "workers lost", sparse=True),
    Metric("sweep.ctx.spawn", "pools started with spawn, not fork",
           "sweep_ctx_spawn", "spawn-context fallbacks", sparse=True),
    Metric("sweep.ipc.*", "result frames shipped, per transport"),
    # -- search: the active Pareto search -------------------------------
    Metric("search.evaluated", "points acquired",
           "search_evaluated", "search points evaluated", "search"),
    Metric("search.rounds", "proposal rounds",
           "search_rounds", "search rounds", "search"),
    Metric("search.front_size", "final Pareto-front size",
           "search_front_size", "search front size", "search"),
    Metric("search.surrogate_rank_calls", "surrogate ranking fits",
           "search_surrogate_rank_calls", "surrogate ranking fits",
           sparse=True),
    # -- journal, logging and timers ------------------------------------
    Metric("checkpoint.corrupt_lines", "unreadable journal lines skipped"),
    Metric("checkpoint.records_loaded", "records replayed from a journal"),
    Metric("checkpoint.merged_journals", "journals merged"),
    Metric("checkpoint.merged_records", "records in merged journals"),
    Metric("linelog.tail_repaired", "torn final lines cut off on open"),
    Metric("obs.warnings", "warnings logged"),
    Metric("sweep.run", "timer: one run_sweep call"),
    Metric("sweep.batch", "timer: one batched evaluation in a sweep"),
    Metric("musa.batch_eval", "timer: one BatchEvaluator frame"),
    Metric("phase_sim.simulate", "timer: one detailed phase simulation"),
    Metric("replay.run", "timer: one scalar event replay"),
    Metric("replay.batch.run", "timer: one config-batched replay"),
)

#: Entries reported in ``summarize()["derived"]``, in key order.
DERIVED = tuple(m for m in CATALOG if m.key)


def lookup(name: str) -> Optional[Metric]:
    """The entry for an emitted ``name``: exact, else its family."""
    for m in CATALOG:
        if m.name == name or (m.name and m.name.endswith(".*")
                              and name.startswith(m.name[:-1])):
            return m
    return None
