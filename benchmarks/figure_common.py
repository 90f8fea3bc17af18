"""Shared claim checks and rendering for the paper figures (Figs. 5-9, 11).

Each figure has three panels: (a) normalized speedup, (b) the
Core+L1 / L2+L3 / Memory power split, (c) normalized energy-to-solution
— for 32- and 64-core nodes, averaged over paired configurations.
"""

from typing import Sequence

from repro.analysis import format_panel, format_rows
from repro.analysis.claims import ClaimFixtures, check_claims
from repro.apps import APP_NAMES
from repro.config import FIGURE_AXES
from repro.core import ResultSet, axis_table, normalize_axis

__all__ = ["assert_claims", "render_axis_figure"]


def assert_claims(figure: str, sweep=None, special=None) -> None:
    """Check ``figure``'s rows of :data:`repro.analysis.claims.CLAIMS`.

    The sweep serves as both the plane and the frequency column, so
    every bar is a sweep mean; ``special`` holds the Table II runs.
    """
    verdicts = check_claims(ClaimFixtures(sweep, sweep, special), figure)
    failed = [f"{v.claim.name} = {v.value:.4f} (bound {v.claim.bound})"
              for v in verdicts if not v.holds]
    assert verdicts and not failed, failed


def _power_split_rows(results: ResultSet, axis: str, values: Sequence,
                      cores: int):
    rows = []
    for app in APP_NAMES:
        for v in values:
            sub = results.filter(app=app, cores=cores, **{axis: v})
            rows.append([
                app, v,
                float(sub.values("power_core_l1_w").mean()),
                float(sub.values("power_l2_l3_w").mean()),
                float(sub.values("power_memory_w").mean()),
                float(sub.values("power_total_w").mean()),
            ])
    return rows


def render_axis_figure(results: ResultSet, axis: str, title: str) -> str:
    """Render one paper figure (a/b/c panels x 32/64-core columns) over
    the axis values of :data:`repro.config.FIGURE_AXES`."""
    baseline, values = FIGURE_AXES[axis]
    speed = normalize_axis(results, axis, baseline, "time_ns")
    energy = normalize_axis(results, axis, baseline, "energy_j")
    blocks = [title]
    for cores in (32, 64):
        blocks.append(format_panel(
            f"(a) speedup vs {axis}={baseline} — {cores} cores x 256 ranks",
            axis_table(speed, APP_NAMES, values, cores), values, axis))
        blocks.append(format_rows(
            f"(b) power split [W] — {cores} cores",
            ["app", axis, "Core+L1", "L2+L3", "Memory", "total"],
            _power_split_rows(results, axis, values, cores)))
        blocks.append(format_panel(
            f"(c) energy-to-solution vs {axis}={baseline} — {cores} cores",
            axis_table(energy, APP_NAMES, values, cores), values, axis))
    return "\n\n".join(blocks)
