"""Golden outputs of ``summarize()`` and the CLI metrics table.

Fixed synthetic snapshots with literal expected values: the ``derived``
block (values *and* key order) and the full ``format_metrics_summary``
text must not change when the code that produces them does.
"""

import pytest

from repro.analysis import format_metrics_summary
from repro.obs import summarize

#: Every counter name the package emits; the ``all`` snapshot sets the
#: i-th one to ``i``.
COUNTERS = (
    "batch.memo.evictions", "checkpoint.corrupt_lines",
    "checkpoint.duplicates_dropped", "checkpoint.merged_journals",
    "checkpoint.merged_records", "checkpoint.records_loaded",
    "linelog.tail_repaired", "miss.batch.geometries", "miss.table.evictions",
    "musa.memo.evictions", "musa.phase_detail.hit", "musa.phase_detail.miss",
    "musa.simulate_node", "musa.trace_gen", "obs.warnings", "phase_sim.calls",
    "phase_sim.kernel_memo.hit", "phase_sim.kernel_memo.miss",
    "replay.batch.array_events", "replay.batch.array_fallbacks",
    "replay.batch.driver.array", "replay.batch.driver.scalar",
    "replay.bus_waits", "replay.events", "replay.messages",
    "replay.tape.builds", "replay.tape.evictions", "replay.wakeups",
    "sched.batch.fallbacks", "sched.batch.fast", "sched.structure.evictions",
    "search.evaluated", "search.front_size", "search.rounds",
    "search.surrogate_rank_calls", "serve.errors", "serve.query.best",
    "serve.query.delta", "serve.query.sweep", "serve.requests",
    "serve.singleflight.coalesced", "store.block.loaded", "store.block.put",
    "store.block.records", "store.corrupt_lines", "store.duplicates_dropped",
    "store.entries_loaded", "store.hit", "store.invalidated", "store.miss",
    "store.put", "sweep.batch.configs", "sweep.batch.fallback",
    "sweep.ctx.spawn", "sweep.faults", "sweep.ipc.pickle", "sweep.ipc.shm",
    "sweep.retries", "sweep.shards", "sweep.steals", "sweep.tasks.completed",
    "sweep.tasks.failed", "sweep.tasks.skipped", "sweep.timeout_unavailable",
    "sweep.worker.lost",
)

TIMERS = {
    "sweep.run": {"count": 2.0, "total_s": 4.0, "max_s": 3.0},
    "musa.batch_eval": {"count": 4.0, "total_s": 1.5, "max_s": 0.5},
}

#: One snapshot per metrics-table group in which only that group is
#: nonzero (``*_dense``: the group without its sparse rows).
GROUPS = {
    "run": ({
        "sweep.tasks.completed": 8,
        "sweep.tasks.skipped": 2,
        "sweep.tasks.failed": 1,
        "sweep.retries": 3,
        "sweep.faults": 4,
        "checkpoint.duplicates_dropped": 5,
        "musa.phase_detail.hit": 3,
        "musa.phase_detail.miss": 1,
        "phase_sim.kernel_memo.hit": 2,
        "phase_sim.kernel_memo.miss": 2,
    }, {"sweep.run": {"count": 1.0, "total_s": 4.0, "max_s": 4.0}}),
    "replay": ({
        "replay.events": 100,
        "replay.wakeups": 7,
        "replay.messages": 12,
        "replay.bus_waits": 3,
        "replay.batch.array_events": 64,
        "replay.tape.builds": 2,
    }, {}),
    "miss": ({
        "miss.batch.geometries": 9,
    }, {}),
    "sched": ({
        "sched.batch.fast": 40,
        "sched.batch.fallbacks": 2,
    }, {}),
    "memo_evictions": ({
        "musa.memo.evictions": 6,
    }, {}),
    "batch_memo_evictions": ({
        "batch.memo.evictions": 4,
    }, {}),
    "store": ({
        "store.hit": 8,
        "store.miss": 2,
        "store.put": 2,
        "store.invalidated": 1,
    }, {}),
    "serve": ({
        "serve.requests": 5,
        "serve.singleflight.coalesced": 1,
    }, {}),
    "timeout": ({
        "sweep.timeout_unavailable": 2,
    }, {}),
    "shards": ({
        "sweep.shards": 6,
        "sweep.steals": 2,
        "sweep.worker.lost": 1,
        "sweep.ctx.spawn": 1,
    }, {}),
    "shards_dense": ({
        "sweep.shards": 6,
        "sweep.steals": 2,
    }, {}),
    "search": ({
        "search.evaluated": 30,
        "search.rounds": 4,
        "search.front_size": 7,
        "search.surrogate_rank_calls": 3,
    }, {}),
    "search_dense": ({
        "search.evaluated": 30,
        "search.rounds": 4,
        "search.front_size": 7,
    }, {}),
}

SNAPSHOTS = {
    "empty": {"counters": {}, "timers": {}},
    "all": {"counters": {n: i for i, n in enumerate(COUNTERS, start=1)},
            "timers": TIMERS},
    **{f"only_{g}": {"counters": c, "timers": t}
       for g, (c, t) in GROUPS.items()},
}

DERIVED_KEYS = (
    "tasks_completed", "tasks_skipped", "tasks_failed", "retries", "faults",
    "duplicates_dropped", "sweep_wall_s", "tasks_per_second", "memo_hit_rate",
    "phase_memo_hit_rate", "kernel_memo_hit_rate", "batched_configs",
    "batch_fallbacks", "replay_events", "replay_wakeups", "replay_messages",
    "replay_bus_waits", "replay_array_events", "replay_tape_builds",
    "miss_batch_geometries", "sched_batch_fast", "sched_batch_fallbacks",
    "memo_evictions", "batch_memo_evictions", "store_hits", "store_misses",
    "store_hit_rate", "store_puts", "store_invalidated", "serve_requests",
    "serve_coalesced", "timeout_unavailable", "sweep_shards", "sweep_steals",
    "sweep_workers_lost", "sweep_ctx_spawn", "search_evaluated",
    "search_rounds", "search_front_size", "search_surrogate_rank_calls",
)

#: ``summarize(snapshot)["derived"]`` values in ``DERIVED_KEYS`` order.
DERIVED = {
    "empty": (
        0, 0, 0, 0, 0, 0, 0.0, None, None, None, None, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, None, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ),
    "all": (
        61, 63, 62, 58, 55, 3, 4.0, 15.25, 0.4827586206896552,
        0.4782608695652174, 0.4857142857142857, 52, 53, 24, 28, 25, 23, 19, 26,
        8, 30, 29, 10, 1, 48, 50, 0.4897959183673469, 51, 49, 40, 41, 64, 59,
        60, 65, 54, 32, 34, 33, 35,
    ),
    "only_run": (
        8, 2, 1, 3, 4, 5, 4.0, 2.0, 0.625, 0.75, 0.5, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, None, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ),
    "only_replay": (
        0, 0, 0, 0, 0, 0, 0.0, None, None, None, None, 0, 0, 100, 7, 12, 3, 64,
        2, 0, 0, 0, 0, 0, 0, 0, None, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ),
    "only_miss": (
        0, 0, 0, 0, 0, 0, 0.0, None, None, None, None, 0, 0, 0, 0, 0, 0, 0, 0,
        9, 0, 0, 0, 0, 0, 0, None, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ),
    "only_sched": (
        0, 0, 0, 0, 0, 0, 0.0, None, None, None, None, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 40, 2, 0, 0, 0, 0, None, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ),
    "only_memo_evictions": (
        0, 0, 0, 0, 0, 0, 0.0, None, None, None, None, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 6, 0, 0, 0, None, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ),
    "only_batch_memo_evictions": (
        0, 0, 0, 0, 0, 0, 0.0, None, None, None, None, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 4, 0, 0, None, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ),
    "only_store": (
        0, 0, 0, 0, 0, 0, 0.0, None, None, None, None, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 8, 2, 0.8, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ),
    "only_serve": (
        0, 0, 0, 0, 0, 0, 0.0, None, None, None, None, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, None, 0, 0, 5, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ),
    "only_timeout": (
        0, 0, 0, 0, 0, 0, 0.0, None, None, None, None, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, None, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0,
    ),
    "only_shards": (
        0, 0, 0, 0, 0, 0, 0.0, None, None, None, None, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, None, 0, 0, 0, 0, 0, 6, 2, 1, 1, 0, 0, 0, 0,
    ),
    "only_shards_dense": (
        0, 0, 0, 0, 0, 0, 0.0, None, None, None, None, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, None, 0, 0, 0, 0, 0, 6, 2, 0, 0, 0, 0, 0, 0,
    ),
    "only_search": (
        0, 0, 0, 0, 0, 0, 0.0, None, None, None, None, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, None, 0, 0, 0, 0, 0, 0, 0, 0, 0, 30, 4, 7, 3,
    ),
    "only_search_dense": (
        0, 0, 0, 0, 0, 0, 0.0, None, None, None, None, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, None, 0, 0, 0, 0, 0, 0, 0, 0, 0, 30, 4, 7, 0,
    ),
}

TEXT = {
    "empty": """\
sweep execution metrics
                    metric  value
--------------------------  -----
           tasks completed      0
    tasks skipped (resume)      0
              tasks failed      0
                   retries      0
           faults observed      0
journal duplicates dropped      0
       sweep wall time [s]  0.000
      throughput [tasks/s]    n/a
   memo hit rate (overall)    n/a
    phase-detail component    n/a
   kernel-timing component    n/a""",
    "all": """\
sweep execution metrics
                         metric   value
-------------------------------  ------
                tasks completed      61
         tasks skipped (resume)      63
                   tasks failed      62
                        retries      58
                faults observed      55
     journal duplicates dropped       3
            sweep wall time [s]   4.000
           throughput [tasks/s]  15.250
        memo hit rate (overall)   0.483
         phase-detail component   0.478
        kernel-timing component   0.486
        replay events processed      24
                 replay wakeups      28
                replay messages      25
               replay bus waits      23
            replay array events      19
             replay tapes built      26
miss-model geometries evaluated       8
   scheduler columns vectorized      30
     scheduler columns fallback      29
                 memo evictions      10
           batch memo evictions       1
              result-store hits      48
            result-store misses      50
          result-store hit rate   0.490
                 serve requests      40
        serve queries coalesced      41
           timeouts unavailable      64
              work shards dealt      59
                  shards stolen      60
                   workers lost      65
        spawn-context fallbacks      54
        search points evaluated      32
                  search rounds      34
              search front size      33
         surrogate ranking fits      35

stage spans
           span  count  total [s]  mean [ms]  max [ms]
---------------  -----  ---------  ---------  --------
musa.batch_eval      4      1.500    375.000   500.000
      sweep.run      2      4.000   2000.000  3000.000""",
    "only_run": """\
sweep execution metrics
                    metric  value
--------------------------  -----
           tasks completed      8
    tasks skipped (resume)      2
              tasks failed      1
                   retries      3
           faults observed      4
journal duplicates dropped      5
       sweep wall time [s]  4.000
      throughput [tasks/s]  2.000
   memo hit rate (overall)  0.625
    phase-detail component  0.750
   kernel-timing component  0.500

stage spans
     span  count  total [s]  mean [ms]  max [ms]
---------  -----  ---------  ---------  --------
sweep.run      1      4.000   4000.000  4000.000""",
    "only_replay": """\
sweep execution metrics
                    metric  value
--------------------------  -----
           tasks completed      0
    tasks skipped (resume)      0
              tasks failed      0
                   retries      0
           faults observed      0
journal duplicates dropped      0
       sweep wall time [s]  0.000
      throughput [tasks/s]    n/a
   memo hit rate (overall)    n/a
    phase-detail component    n/a
   kernel-timing component    n/a
   replay events processed    100
            replay wakeups      7
           replay messages     12
          replay bus waits      3
       replay array events     64
        replay tapes built      2""",
    "only_miss": """\
sweep execution metrics
                         metric  value
-------------------------------  -----
                tasks completed      0
         tasks skipped (resume)      0
                   tasks failed      0
                        retries      0
                faults observed      0
     journal duplicates dropped      0
            sweep wall time [s]  0.000
           throughput [tasks/s]    n/a
        memo hit rate (overall)    n/a
         phase-detail component    n/a
        kernel-timing component    n/a
miss-model geometries evaluated      9""",
    "only_sched": """\
sweep execution metrics
                      metric  value
----------------------------  -----
             tasks completed      0
      tasks skipped (resume)      0
                tasks failed      0
                     retries      0
             faults observed      0
  journal duplicates dropped      0
         sweep wall time [s]  0.000
        throughput [tasks/s]    n/a
     memo hit rate (overall)    n/a
      phase-detail component    n/a
     kernel-timing component    n/a
scheduler columns vectorized     40
  scheduler columns fallback      2""",
    "only_memo_evictions": """\
sweep execution metrics
                    metric  value
--------------------------  -----
           tasks completed      0
    tasks skipped (resume)      0
              tasks failed      0
                   retries      0
           faults observed      0
journal duplicates dropped      0
       sweep wall time [s]  0.000
      throughput [tasks/s]    n/a
   memo hit rate (overall)    n/a
    phase-detail component    n/a
   kernel-timing component    n/a
            memo evictions      6""",
    "only_batch_memo_evictions": """\
sweep execution metrics
                    metric  value
--------------------------  -----
           tasks completed      0
    tasks skipped (resume)      0
              tasks failed      0
                   retries      0
           faults observed      0
journal duplicates dropped      0
       sweep wall time [s]  0.000
      throughput [tasks/s]    n/a
   memo hit rate (overall)    n/a
    phase-detail component    n/a
   kernel-timing component    n/a
      batch memo evictions      4""",
    "only_store": """\
sweep execution metrics
                    metric  value
--------------------------  -----
           tasks completed      0
    tasks skipped (resume)      0
              tasks failed      0
                   retries      0
           faults observed      0
journal duplicates dropped      0
       sweep wall time [s]  0.000
      throughput [tasks/s]    n/a
   memo hit rate (overall)    n/a
    phase-detail component    n/a
   kernel-timing component    n/a
         result-store hits      8
       result-store misses      2
     result-store hit rate  0.800""",
    "only_serve": """\
sweep execution metrics
                    metric  value
--------------------------  -----
           tasks completed      0
    tasks skipped (resume)      0
              tasks failed      0
                   retries      0
           faults observed      0
journal duplicates dropped      0
       sweep wall time [s]  0.000
      throughput [tasks/s]    n/a
   memo hit rate (overall)    n/a
    phase-detail component    n/a
   kernel-timing component    n/a
            serve requests      5
   serve queries coalesced      1""",
    "only_timeout": """\
sweep execution metrics
                    metric  value
--------------------------  -----
           tasks completed      0
    tasks skipped (resume)      0
              tasks failed      0
                   retries      0
           faults observed      0
journal duplicates dropped      0
       sweep wall time [s]  0.000
      throughput [tasks/s]    n/a
   memo hit rate (overall)    n/a
    phase-detail component    n/a
   kernel-timing component    n/a
      timeouts unavailable      2""",
    "only_shards": """\
sweep execution metrics
                    metric  value
--------------------------  -----
           tasks completed      0
    tasks skipped (resume)      0
              tasks failed      0
                   retries      0
           faults observed      0
journal duplicates dropped      0
       sweep wall time [s]  0.000
      throughput [tasks/s]    n/a
   memo hit rate (overall)    n/a
    phase-detail component    n/a
   kernel-timing component    n/a
         work shards dealt      6
             shards stolen      2
              workers lost      1
   spawn-context fallbacks      1""",
    "only_shards_dense": """\
sweep execution metrics
                    metric  value
--------------------------  -----
           tasks completed      0
    tasks skipped (resume)      0
              tasks failed      0
                   retries      0
           faults observed      0
journal duplicates dropped      0
       sweep wall time [s]  0.000
      throughput [tasks/s]    n/a
   memo hit rate (overall)    n/a
    phase-detail component    n/a
   kernel-timing component    n/a
         work shards dealt      6
             shards stolen      2""",
    "only_search": """\
sweep execution metrics
                    metric  value
--------------------------  -----
           tasks completed      0
    tasks skipped (resume)      0
              tasks failed      0
                   retries      0
           faults observed      0
journal duplicates dropped      0
       sweep wall time [s]  0.000
      throughput [tasks/s]    n/a
   memo hit rate (overall)    n/a
    phase-detail component    n/a
   kernel-timing component    n/a
   search points evaluated     30
             search rounds      4
         search front size      7
    surrogate ranking fits      3""",
    "only_search_dense": """\
sweep execution metrics
                    metric  value
--------------------------  -----
           tasks completed      0
    tasks skipped (resume)      0
              tasks failed      0
                   retries      0
           faults observed      0
journal duplicates dropped      0
       sweep wall time [s]  0.000
      throughput [tasks/s]    n/a
   memo hit rate (overall)    n/a
    phase-detail component    n/a
   kernel-timing component    n/a
   search points evaluated     30
             search rounds      4
         search front size      7""",
}


@pytest.mark.parametrize("name", list(SNAPSHOTS))
def test_summarize_derived_golden(name):
    derived = summarize(SNAPSHOTS[name])["derived"]
    assert list(derived.items()) == list(zip(DERIVED_KEYS, DERIVED[name]))


@pytest.mark.parametrize("name", list(SNAPSHOTS))
def test_metrics_table_golden(name):
    text = format_metrics_summary(summarize(SNAPSHOTS[name]))
    assert text == TEXT[name]


def test_summarize_passes_raw_snapshot_through():
    snap = SNAPSHOTS["all"]
    out = summarize(snap)
    assert list(out) == ["derived", "counters", "timers"]
    assert out["counters"] == snap["counters"]
    assert out["timers"] == snap["timers"]
