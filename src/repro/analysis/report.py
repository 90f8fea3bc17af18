"""Text rendering of paper-style figures and tables.

Every benchmark prints its figure through these helpers so the harness
output can be compared line-by-line with the paper's plots.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..obs.catalog import CATALOG

__all__ = ["format_metrics_summary", "format_panel", "format_rows"]


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

    ``summary`` is :func:`repro.obs.summarize` output.  The metric rows
    and the rule for which of them print come from
    :mod:`repro.obs.catalog`; the raw timer spans follow in a second
    table.  The memo hit rate reads as "fraction of per-(phase, node)
    detailed simulations avoided": a fresh single-worker full-space
    sweep of one app approaches ``(points - 1) / points`` per phase;
    more workers or a cold cache lower it because each worker process
    warms its own memo.
    """
    d = summary.get("derived", {})
    labelled = [m for m in CATALOG if m.label]
    shown = {labelled[0].group}
    shown.update(m.group for m in labelled if not m.sparse and d.get(m.key))
    rows = [[m.label, d.get(m.key, 0)] for m in labelled
            if (d.get(m.key) if m.sparse else m.group in shown)]
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
