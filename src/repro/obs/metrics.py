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

from .catalog import DERIVED

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
    """Snapshot plus the ``derived`` statistics the CLI reports.

    ``derived`` holds one key per keyed entry of
    :data:`repro.obs.catalog.CATALOG`, in catalog order: a counter's
    value, or one of the rates computed below (``None`` while their
    denominator is zero).
    """
    snap = snap if snap is not None else _GLOBAL.snapshot()
    c = snap.get("counters", {})
    t = snap.get("timers", {})
    wall_s = t.get("sweep.run", {}).get("total_s", 0.0)

    def rate(*pairs):
        hits = sum(c.get(hit, 0) for hit, _ in pairs)
        total = sum(c.get(hit, 0) + c.get(miss, 0) for hit, miss in pairs)
        return hits / total if total else None

    phase = ("musa.phase_detail.hit", "musa.phase_detail.miss")
    kernel = ("phase_sim.kernel_memo.hit", "phase_sim.kernel_memo.miss")
    computed = {
        "sweep_wall_s": wall_s,
        "tasks_per_second": (c.get("sweep.tasks.completed", 0) / wall_s
                             if wall_s > 0 else None),
        "memo_hit_rate": rate(phase, kernel),
        "phase_memo_hit_rate": rate(phase),
        "kernel_memo_hit_rate": rate(kernel),
        "store_hit_rate": rate(("store.hit", "store.miss")),
    }
    derived = {m.key: c.get(m.name, 0) if m.name else computed[m.key]
               for m in DERIVED}
    return {"derived": derived, "counters": c, "timers": t}
