"""Lightweight execution metrics: counters and timer spans.

The sweep engine, :class:`~repro.core.musa.Musa` and the detailed-mode
phase simulator all report into one process-local
:class:`MetricsRegistry`.  Worker processes ship snapshot *deltas* back
to the sweep parent, which merges them, so a campaign's metrics are
complete even when the work ran across a process pool.

The registry is deliberately tiny — plain dicts, no locks beyond a
single mutex, no background threads — so instrumentation can stay on
in production sweeps without measurable overhead.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

__all__ = [
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "inc",
    "observe",
    "span",
    "warn",
    "summarize",
]

logger = logging.getLogger("repro.obs")


class MetricsRegistry:
    """Named counters plus named timers (count / total / max seconds)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._timers: Dict[str, Dict[str, float]] = {}

    # -- recording ----------------------------------------------------------

    def inc(self, name: str, n: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name: str, seconds: float) -> None:
        """Record one timed interval under ``name``."""
        with self._lock:
            t = self._timers.setdefault(
                name, {"count": 0.0, "total_s": 0.0, "max_s": 0.0})
            t["count"] += 1
            t["total_s"] += seconds
            t["max_s"] = max(t["max_s"], seconds)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a ``with`` block as one interval of timer ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - t0)

    # -- reading ------------------------------------------------------------

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, Any]:
        """Copy of the current state, suitable for JSON or :meth:`merge`."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "timers": {k: dict(v) for k, v in self._timers.items()},
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._timers.clear()

    # -- cross-process aggregation ------------------------------------------

    def merge(self, snap: Dict[str, Any]) -> None:
        """Fold a snapshot (or delta) from another registry into this one."""
        with self._lock:
            for name, n in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + n
            for name, t in snap.get("timers", {}).items():
                mine = self._timers.setdefault(
                    name, {"count": 0.0, "total_s": 0.0, "max_s": 0.0})
                mine["count"] += t["count"]
                mine["total_s"] += t["total_s"]
                mine["max_s"] = max(mine["max_s"], t["max_s"])

    @staticmethod
    def delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
        """The snapshot difference ``after - before`` (counters and timers).

        ``max_s`` is the interval's *contribution to the running
        maximum*: the new all-time maximum when one was set during the
        interval (then it is the exact interval max), else ``0.0``.
        Merging every delta from a registry back into a base therefore
        reproduces the true maximum; reporting ``after``'s all-time
        ``max_s`` instead (the old behaviour) inflated intervals that
        merely *followed* a slow span — e.g. parent-merged worker spans
        across resumed sweeps.
        """
        counters = {}
        for name, n in after.get("counters", {}).items():
            d = n - before.get("counters", {}).get(name, 0)
            if d:
                counters[name] = d
        timers = {}
        for name, t in after.get("timers", {}).items():
            b = before.get("timers", {}).get(
                name, {"count": 0.0, "total_s": 0.0, "max_s": 0.0})
            dc = t["count"] - b["count"]
            if dc:
                timers[name] = {
                    "count": dc,
                    "total_s": t["total_s"] - b["total_s"],
                    "max_s": t["max_s"] if t["max_s"] > b["max_s"] else 0.0,
                }
        return {"counters": counters, "timers": timers}


#: Process-local default registry; forked sweep workers inherit a copy
#: and report deltas back to the parent.
_GLOBAL = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    return _GLOBAL


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-local registry (returns the previous one)."""
    global _GLOBAL
    previous, _GLOBAL = _GLOBAL, registry
    return previous


def inc(name: str, n: float = 1) -> None:
    _GLOBAL.inc(name, n)


def observe(name: str, seconds: float) -> None:
    _GLOBAL.observe(name, seconds)


def span(name: str):
    return _GLOBAL.span(name)


def warn(message: str, *args) -> None:
    """Log a warning and count it (counter ``obs.warnings``)."""
    _GLOBAL.inc("obs.warnings")
    logger.warning(message, *args)


def summarize(snap: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Snapshot plus the derived campaign statistics the CLI reports.

    * ``tasks_per_second`` — completed tasks over the sweep wall time;
    * ``memo_hit_rate`` — fraction of memoizable detailed-simulation
      lookups (phase-detail results plus resolved kernel timings)
      served from cache instead of re-simulated;
    * ``phase_memo_hit_rate`` / ``kernel_memo_hit_rate`` — the two
      components: whole-phase results (hit on re-simulation of a
      (phase, node) pair, e.g. retries or repeated points) and kernel
      timings (hit when phases of one app share a kernel at the same
      occupancy);
    * ``retries`` / ``tasks_failed`` / ``tasks_skipped`` — fault and
      resume accounting from the sweep scheduler;
    * ``batched_configs`` / ``batch_fallbacks`` — configs that went
      through the column-wise batched evaluator, and batches that had
      to fall back to scalar per-config simulation;
    * ``replay_events`` / ``replay_wakeups`` / ``replay_messages`` /
      ``replay_bus_waits`` — event-driven MPI replay activity
      (``mode='replay'`` campaigns): trace events processed, blocked
      ranks re-examined after a dependency resolved, point-to-point
      messages matched, and transfers delayed by the finite-bus pool;
    * ``replay_array_events`` — config-events priced by the
      level-batched array replay driver (structural tape, one NumPy
      pass per level group instead of one Python step per event);
    * ``miss_batch_geometries`` — distinct cache geometries evaluated
      by the batched set-associative miss model (one 2-D pass per
      kernel instead of one scalar call per level per config);
    * ``sched_batch_fast`` / ``sched_batch_fallbacks`` — config
      columns served by the vectorized phase scheduler versus columns
      that fell back to the per-config scalar simulation (e.g.
      ``overhead_scale != duration_scale``);
    * ``memo_evictions`` — entries dropped from ``Musa``'s bounded
      per-process memo caches (burst/detail/trace/kernel-timing);
    * ``batch_memo_evictions`` — entries dropped from the batched
      evaluator's bounded miss-profile/vector memos;
    * ``store_hits`` / ``store_misses`` / ``store_hit_rate`` /
      ``store_puts`` / ``store_invalidated`` — content-addressed
      result-store traffic (the serve layer's cache: a hit answers a
      query point without touching the engine);
    * ``serve_requests`` / ``serve_coalesced`` — queries handled by the
      serve front end, and duplicates that coalesced onto an identical
      in-flight evaluation instead of racing the engine;
    * ``timeout_unavailable`` — tasks that requested a ``timeout_s``
      budget on a platform or thread without ``SIGALRM`` and ran
      unbudgeted instead;
    * ``sweep_shards`` / ``sweep_steals`` / ``sweep_workers_lost`` /
      ``sweep_ctx_spawn`` — shard-scheduler accounting: work shards
      dealt to workers, shards stolen from a busy worker's deque by an
      idle one, worker processes that died mid-sweep (their shards are
      requeued), and pools that fell back to the ``spawn`` start
      method because ``fork`` was unavailable;
    * ``search_evaluated`` / ``search_rounds`` / ``search_front_size``
      / ``search_surrogate_rank_calls`` — active-DSE search loop
      accounting (:mod:`repro.analysis.search`): points acquired,
      proposal rounds, final Pareto-front size, and surrogate ranking
      fits.
    """
    snap = snap if snap is not None else _GLOBAL.snapshot()
    c = snap.get("counters", {})
    t = snap.get("timers", {})
    run = t.get("sweep.run", {})
    completed = c.get("sweep.tasks.completed", 0)
    wall_s = run.get("total_s", 0.0)

    def rate(hit_name, miss_name):
        hits = c.get(hit_name, 0)
        total = hits + c.get(miss_name, 0)
        return hits / total if total else None

    phase_hits = c.get("musa.phase_detail.hit", 0)
    phase_misses = c.get("musa.phase_detail.miss", 0)
    kern_hits = c.get("phase_sim.kernel_memo.hit", 0)
    kern_misses = c.get("phase_sim.kernel_memo.miss", 0)
    memo_total = phase_hits + phase_misses + kern_hits + kern_misses
    derived = {
        "tasks_completed": completed,
        "tasks_skipped": c.get("sweep.tasks.skipped", 0),
        "tasks_failed": c.get("sweep.tasks.failed", 0),
        "retries": c.get("sweep.retries", 0),
        "faults": c.get("sweep.faults", 0),
        "duplicates_dropped": c.get("checkpoint.duplicates_dropped", 0),
        "sweep_wall_s": wall_s,
        "tasks_per_second": completed / wall_s if wall_s > 0 else None,
        "memo_hit_rate": ((phase_hits + kern_hits) / memo_total
                          if memo_total else None),
        "phase_memo_hit_rate": rate("musa.phase_detail.hit",
                                    "musa.phase_detail.miss"),
        "kernel_memo_hit_rate": rate("phase_sim.kernel_memo.hit",
                                     "phase_sim.kernel_memo.miss"),
        "batched_configs": c.get("sweep.batch.configs", 0),
        "batch_fallbacks": c.get("sweep.batch.fallback", 0),
        "replay_events": c.get("replay.events", 0),
        "replay_wakeups": c.get("replay.wakeups", 0),
        "replay_messages": c.get("replay.messages", 0),
        "replay_bus_waits": c.get("replay.bus_waits", 0),
        "replay_array_events": c.get("replay.batch.array_events", 0),
        "miss_batch_geometries": c.get("miss.batch.geometries", 0),
        "sched_batch_fast": c.get("sched.batch.fast", 0),
        "sched_batch_fallbacks": c.get("sched.batch.fallbacks", 0),
        "memo_evictions": c.get("musa.memo.evictions", 0),
        "batch_memo_evictions": c.get("batch.memo.evictions", 0),
        "store_hits": c.get("store.hit", 0),
        "store_misses": c.get("store.miss", 0),
        "store_hit_rate": rate("store.hit", "store.miss"),
        "store_puts": c.get("store.put", 0),
        "store_invalidated": c.get("store.invalidated", 0),
        "serve_requests": c.get("serve.requests", 0),
        "serve_coalesced": c.get("serve.singleflight.coalesced", 0),
        "timeout_unavailable": c.get("sweep.timeout_unavailable", 0),
        "sweep_shards": c.get("sweep.shards", 0),
        "sweep_steals": c.get("sweep.steals", 0),
        "sweep_workers_lost": c.get("sweep.worker.lost", 0),
        "sweep_ctx_spawn": c.get("sweep.ctx.spawn", 0),
        "search_evaluated": c.get("search.evaluated", 0),
        "search_rounds": c.get("search.rounds", 0),
        "search_front_size": c.get("search.front_size", 0),
        "search_surrogate_rank_calls": c.get("search.surrogate_rank_calls",
                                             0),
    }
    return {"derived": derived, "counters": c, "timers": t}
