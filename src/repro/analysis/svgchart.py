"""Dependency-free SVG bar charts.

The paper's figures are grouped bar charts (apps on the x-axis, one bar
per axis value).  matplotlib is not available in this environment, so
this module emits standalone SVG directly — enough to eyeball a figure
in a browser next to the paper's plot.
"""

from __future__ import annotations

import html
from typing import Mapping, Optional, Sequence

__all__ = ["grouped_bar_chart"]

_PALETTE = ("#4878a8", "#e49444", "#5ba053", "#bf5b50", "#8268a8",
            "#99755a", "#d684bd", "#7f7f7f")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def grouped_bar_chart(
    data: Mapping[str, Mapping[object, float]],
    groups: Sequence[str],
    values: Sequence[object],
    title: str = "",
    width: int = 720,
    height: int = 360,
    y_label: str = "normalized",
    reference_line: Optional[float] = 1.0,
) -> str:
    """Render ``data[group][value]`` as a grouped bar chart.

    Parameters
    ----------
    data:
        Nested mapping: outer keys are groups (applications), inner keys
        the series (axis values).  Missing cells are skipped.
    reference_line:
        Horizontal guide (the paper draws the 1.0 baseline); ``None``
        disables it.
    """
    if not groups or not values:
        raise ValueError("need at least one group and one value")
    margin_l, margin_r, margin_t, margin_b = 56, 16, 36, 72
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    if plot_w <= 0 or plot_h <= 0:
        raise ValueError("chart too small for its margins")

    cells = [data.get(g, {}).get(v) for g in groups for v in values]
    present = [c for c in cells if c is not None]
    if not present:
        raise ValueError("no data cells present")
    y_max = max(max(present), reference_line or 0.0) * 1.12
    if y_max <= 0:
        raise ValueError("all values non-positive")

    group_w = plot_w / len(groups)
    bar_w = group_w * 0.8 / len(values)

    def x_of(gi: int, vi: int) -> float:
        return margin_l + gi * group_w + group_w * 0.1 + vi * bar_w

    def y_of(val: float) -> float:
        return margin_t + plot_h * (1.0 - val / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2}" y="18" text-anchor="middle" '
            f'font-size="13">{html.escape(title)}</text>')

    # y axis: 5 ticks.
    for i in range(6):
        val = y_max * i / 5
        y = y_of(val)
        parts.append(
            f'<line x1="{margin_l}" y1="{_fmt(y)}" '
            f'x2="{width - margin_r}" y2="{_fmt(y)}" stroke="#e0e0e0"/>')
        parts.append(
            f'<text x="{margin_l - 6}" y="{_fmt(y + 4)}" '
            f'text-anchor="end">{val:.2f}</text>')
    parts.append(
        f'<text x="14" y="{margin_t + plot_h / 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {margin_t + plot_h / 2})">'
        f'{html.escape(y_label)}</text>')

    if reference_line is not None and reference_line <= y_max:
        y = y_of(reference_line)
        parts.append(
            f'<line x1="{margin_l}" y1="{_fmt(y)}" '
            f'x2="{width - margin_r}" y2="{_fmt(y)}" '
            'stroke="#555" stroke-dasharray="4 3"/>')

    # bars
    for gi, g in enumerate(groups):
        for vi, v in enumerate(values):
            val = data.get(g, {}).get(v)
            if val is None:
                continue
            color = _PALETTE[vi % len(_PALETTE)]
            x = x_of(gi, vi)
            y = y_of(max(val, 0.0))
            h = margin_t + plot_h - y
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w * 0.92)}" '
                f'height="{_fmt(h)}" fill="{color}">'
                f'<title>{html.escape(str(g))} {html.escape(str(v))}: '
                f'{val:.3f}</title></rect>')
        parts.append(
            f'<text x="{_fmt(margin_l + gi * group_w + group_w / 2)}" '
            f'y="{height - margin_b + 16}" text-anchor="middle">'
            f'{html.escape(str(g))}</text>')

    # legend
    lx = margin_l
    ly = height - margin_b + 34
    for vi, v in enumerate(values):
        color = _PALETTE[vi % len(_PALETTE)]
        parts.append(f'<rect x="{lx}" y="{ly - 9}" width="10" height="10" '
                     f'fill="{color}"/>')
        label = html.escape(str(v))
        parts.append(f'<text x="{lx + 14}" y="{ly}">{label}</text>')
        lx += 14 + 7 * max(3, len(str(v))) + 16

    # axes
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{margin_t + plot_h}" stroke="#333"/>')
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" '
        f'x2="{width - margin_r}" y2="{margin_t + plot_h}" stroke="#333"/>')
    parts.append("</svg>")
    return "\n".join(parts)
