"""Analysis layer: PCA, timelines, scaling curves, figure rendering."""

from .htmlreport import build_html_report
from .optimize import Constraints, OptimalChoice, optimize_node
from .pareto import ParetoPoint, best_configs, front_indices, pareto_front
from .pca import PCA_VARIABLES, PcaResult, app_pca, pca
from .recommend import Recommendation, RecommendationReport, recommend
from .search import SearchResult, search_front
from .report import format_metrics_summary, format_panel, format_rows
from .sensitivity import AxisSwing, render_tornado, tornado
from .scaling import ScalingCurve, compute_region_scaling, full_app_scaling
from .svgchart import grouped_bar_chart
from .timeline import (
    OccupancyStats,
    RankActivityStats,
    occupancy_stats,
    rank_activity_stats,
    render_core_timeline,
    render_rank_timeline,
)

__all__ = [
    "OccupancyStats",
    "PCA_VARIABLES",
    "PcaResult",
    "ParetoPoint",
    "SearchResult",
    "best_configs",
    "front_indices",
    "search_front",
    "Constraints",
    "OptimalChoice",
    "build_html_report",
    "optimize_node",
    "pareto_front",
    "RankActivityStats",
    "Recommendation",
    "RecommendationReport",
    "ScalingCurve",
    "app_pca",
    "compute_region_scaling",
    "AxisSwing",
    "format_metrics_summary",
    "format_panel",
    "format_rows",
    "render_tornado",
    "tornado",
    "full_app_scaling",
    "grouped_bar_chart",
    "occupancy_stats",
    "pca",
    "rank_activity_stats",
    "recommend",
    "render_core_timeline",
    "render_rank_timeline",
]
