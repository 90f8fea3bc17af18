"""Execution observability: counters, timer spans, progress meters.

Everything here is process-local and dependency-free; the sweep engine
merges worker deltas so campaign metrics survive multiprocessing.
:mod:`repro.obs.catalog` lists every emitted counter and timer name and
the ``derived`` statistics :func:`summarize` builds from them for
``repro sweep --metrics-json`` and the CLI metrics table.
"""

from .metrics import (
    MetricsRegistry,
    get_metrics,
    inc,
    observe,
    set_metrics,
    span,
    summarize,
    warn,
)
from .progress import ProgressMeter

__all__ = [
    "MetricsRegistry",
    "ProgressMeter",
    "get_metrics",
    "inc",
    "observe",
    "set_metrics",
    "span",
    "summarize",
    "warn",
]
