"""Text rendering of paper-style figures and tables.

Every benchmark prints its figure through these helpers so the harness
output can be compared line-by-line with the paper's plots.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

__all__ = ["format_metrics_summary", "format_panel", "format_stacked_power",
           "format_rows"]


def format_rows(title: str, header: Sequence[str],
                rows: Sequence[Sequence[object]]) -> str:
    """Generic fixed-width table."""
    widths = [max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) if rows
              else len(str(h)) for i, h in enumerate(header)]
    lines = [title]
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(_fmt(v).rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt(v: object) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


def format_metrics_summary(summary: Dict) -> str:
    """Human-readable campaign execution metrics.

    ``summary`` is :func:`repro.obs.summarize` output: a ``derived``
    block (throughput, retry/fault accounting, memoization hit rate)
    plus the raw counters and timer spans.  The memo hit rate reads as
    "fraction of per-(phase, node) detailed simulations avoided": a
    fresh single-worker full-space sweep of one app approaches
    ``(points - 1) / points`` per phase; more workers or a cold cache
    lower it because each worker process warms its own memo.
    """
    d = summary.get("derived", {})
    rows = [
        ["tasks completed", d.get("tasks_completed", 0)],
        ["tasks skipped (resume)", d.get("tasks_skipped", 0)],
        ["tasks failed", d.get("tasks_failed", 0)],
        ["retries", d.get("retries", 0)],
        ["faults observed", d.get("faults", 0)],
        ["journal duplicates dropped", d.get("duplicates_dropped", 0)],
        ["sweep wall time [s]", d.get("sweep_wall_s", 0.0)],
        ["throughput [tasks/s]", d.get("tasks_per_second")],
        ["memo hit rate (overall)", d.get("memo_hit_rate")],
        ["  phase-detail component", d.get("phase_memo_hit_rate")],
        ["  kernel-timing component", d.get("kernel_memo_hit_rate")],
    ]
    if d.get("replay_events", 0):
        rows += [
            ["replay events processed", d.get("replay_events", 0)],
            ["replay wakeups", d.get("replay_wakeups", 0)],
            ["replay messages", d.get("replay_messages", 0)],
            ["replay bus waits", d.get("replay_bus_waits", 0)],
            ["replay array events", d.get("replay_array_events", 0)],
        ]
    if d.get("miss_batch_geometries", 0):
        rows.append(["miss-model geometries evaluated",
                     d.get("miss_batch_geometries", 0)])
    if d.get("sched_batch_fast", 0) or d.get("sched_batch_fallbacks", 0):
        rows += [
            ["scheduler columns vectorized", d.get("sched_batch_fast", 0)],
            ["scheduler columns fallback", d.get("sched_batch_fallbacks", 0)],
        ]
    if d.get("memo_evictions", 0):
        rows.append(["memo evictions", d.get("memo_evictions", 0)])
    if d.get("batch_memo_evictions", 0):
        rows.append(["batch memo evictions",
                     d.get("batch_memo_evictions", 0)])
    if d.get("store_hits", 0) or d.get("store_misses", 0):
        rows += [
            ["result-store hits", d.get("store_hits", 0)],
            ["result-store misses", d.get("store_misses", 0)],
            ["result-store hit rate", d.get("store_hit_rate")],
        ]
    if d.get("serve_requests", 0):
        rows += [
            ["serve requests", d.get("serve_requests", 0)],
            ["serve queries coalesced", d.get("serve_coalesced", 0)],
        ]
    if d.get("timeout_unavailable", 0):
        rows.append(["timeouts unavailable", d.get("timeout_unavailable", 0)])
    if d.get("sweep_shards", 0):
        rows += [
            ["work shards dealt", d.get("sweep_shards", 0)],
            ["shards stolen", d.get("sweep_steals", 0)],
        ]
        if d.get("sweep_workers_lost", 0):
            rows.append(["workers lost", d.get("sweep_workers_lost", 0)])
        if d.get("sweep_ctx_spawn", 0):
            rows.append(["spawn-context fallbacks",
                         d.get("sweep_ctx_spawn", 0)])
    if d.get("search_evaluated", 0):
        rows += [
            ["search points evaluated", d.get("search_evaluated", 0)],
            ["search rounds", d.get("search_rounds", 0)],
            ["search front size", d.get("search_front_size", 0)],
        ]
        if d.get("search_surrogate_rank_calls", 0):
            rows.append(["surrogate ranking fits",
                         d.get("search_surrogate_rank_calls", 0)])
    out = [format_rows("sweep execution metrics", ["metric", "value"], rows)]
    timers = summary.get("timers", {})
    if timers:
        trows = []
        for name in sorted(timers):
            t = timers[name]
            count = t.get("count", 0)
            mean_ms = (1e3 * t.get("total_s", 0.0) / count) if count else 0.0
            trows.append([name, int(count), t.get("total_s", 0.0), mean_ms,
                          1e3 * t.get("max_s", 0.0)])
        out.append(format_rows(
            "stage spans",
            ["span", "count", "total [s]", "mean [ms]", "max [ms]"], trows))
    return "\n\n".join(out)


def format_panel(
    title: str,
    table: Dict[str, Dict[object, Tuple[float, float]]],
    values: Sequence[object],
    value_label: str,
) -> str:
    """One figure panel: rows = apps, columns = axis values, cells =
    normalized mean (std)."""
    header = ["app"] + [f"{value_label}={v}" for v in values]
    rows = []
    for app, cells in table.items():
        row = [app]
        for v in values:
            mean, std = cells[v]
            row.append(f"{mean:.3f}±{std:.2f}")
        rows.append(row)
    return format_rows(title, header, rows)


def format_stacked_power(
    title: str,
    components: Dict[str, Dict[object, Dict[str, Optional[float]]]],
    values: Sequence[object],
) -> str:
    """Stacked power panel: per app and axis value, the Core+L1 /
    L2+L3Cache / Memory watt split (the paper's Figs. 5b-9b)."""
    header = ["app", "value", "Core+L1", "L2+L3", "Memory", "total"]
    rows = []
    for app, per_value in components.items():
        for v in values:
            cell = per_value[v]
            total = (
                None
                if cell.get("memory") is None
                else cell["core_l1"] + cell["l2_l3"] + cell["memory"]
            )
            rows.append([app, v, cell["core_l1"], cell["l2_l3"],
                         cell.get("memory"), total])
    return format_rows(title, header, rows)
