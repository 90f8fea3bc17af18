"""Single-file HTML campaign report.

Bundles the whole evaluation — every per-axis figure as an embedded SVG,
the Fig. 1 characterization table, and the derived co-design
recommendations — into one self-contained HTML document an architect
can open anywhere.  No external assets, no JavaScript frameworks.
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional

from ..config import FIGURE_AXES
from ..core.normalize import normalize_axis
from ..core.results import ResultSet
from .recommend import recommend
from .svgchart import grouped_bar_chart

__all__ = ["build_html_report"]

_FIGURE_TITLES = {
    "vector": "Fig. 5 — FPU vector width",
    "cache": "Fig. 6 — cache sizes",
    "core": "Fig. 7 — core OoO structures",
    "memory": "Fig. 8 — memory channels",
    "frequency": "Fig. 9 — CPU frequency",
}

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em;
       max-width: 70em; color: #222; }
h1 { border-bottom: 2px solid #4878a8; padding-bottom: 0.2em; }
h2 { color: #30506e; margin-top: 2em; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #ccc; padding: 0.3em 0.8em; text-align: right; }
th { background: #eef3f8; }
td:first-child, th:first-child { text-align: left; }
.rec { background: #f6f8ef; border-left: 4px solid #5ba053;
       padding: 0.6em 1em; margin: 0.6em 0; }
.note { color: #666; font-size: 0.9em; }
figure { margin: 1em 0; }
"""


def _axis_svg(results: ResultSet, axis: str, cores: int) -> Optional[str]:
    baseline, values = FIGURE_AXES[axis]
    present = results.unique(axis)
    if baseline not in present or len(present) < 2:
        return None
    bars = normalize_axis(results, axis, baseline, "time_ns")
    table: Dict[str, Dict[object, float]] = {}
    for b in bars:
        if b.cores == cores:
            table.setdefault(b.app, {})[b.value] = b.mean
    if not table:
        return None
    return grouped_bar_chart(
        table, groups=sorted(table), values=[v for v in values
                                             if v in present],
        title=f"{_FIGURE_TITLES[axis]} — speedup vs {baseline} "
              f"({cores} cores)",
        y_label="speedup",
    )


def _characterization_table(results: ResultSet, cores: int) -> str:
    rows = []
    for app in sorted(results.unique("app")):
        sub = results.filter(app=app, cores=cores)
        if len(sub) == 0:
            continue
        rows.append(
            f"<tr><td>{html.escape(str(app))}</td>"
            f"<td>{sub.values('mpki_l1').mean():.2f}</td>"
            f"<td>{sub.values('mpki_l2').mean():.2f}</td>"
            f"<td>{sub.values('mpki_l3').mean():.2f}</td>"
            f"<td>{sub.values('gmem_req_per_s').mean():.3f}</td>"
            f"<td>{sub.values('occupancy').mean():.0%}</td>"
            f"<td>{sub.values('power_total_w').mean():.0f}</td></tr>")
    return (
        "<table><tr><th>app</th><th>L1 MPKI</th><th>L2 MPKI</th>"
        "<th>L3 MPKI</th><th>DRAM Grq/s</th><th>occupancy</th>"
        "<th>node W (mean)</th></tr>" + "".join(rows) + "</table>")


def build_html_report(results: ResultSet, cores: int = 64,
                      title: str = "Design-space exploration report") -> str:
    """Render a full campaign report as a self-contained HTML string."""
    if len(results) == 0:
        raise ValueError("empty result set")
    if cores not in results.unique("cores"):
        raise ValueError(f"no records at {cores} cores")

    parts: List[str] = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f"<p class='note'>{len(results)} simulations · "
        f"{len(results.unique('app'))} applications · figures shown for "
        f"{cores}-core nodes · generated by the MUSA reproduction "
        "toolchain (IPDPS 2019)</p>",
    ]

    parts.append("<h2>Workload characterization (Fig. 1)</h2>")
    parts.append("<p class='note'>Averages over every simulated "
                 "configuration at this core count.</p>")
    parts.append(_characterization_table(results, cores))

    for axis in FIGURE_AXES:
        svg = _axis_svg(results, axis, cores)
        if svg is None:
            continue
        parts.append(f"<h2>{html.escape(_FIGURE_TITLES[axis])}</h2>")
        parts.append(f"<figure>{svg}</figure>")

    parts.append("<h2>Co-design recommendations (Sec. VII)</h2>")
    for rec in recommend(results, cores=cores).recommendations:
        parts.append(
            f"<div class='rec'><b>[{html.escape(rec.axis)}]</b> "
            f"{html.escape(rec.advice)}<br>"
            f"<span class='note'>evidence: "
            f"{html.escape(rec.evidence)}</span></div>")

    parts.append("</body></html>")
    return "\n".join(parts)
