"""MUSA core: multi-scale orchestration, sweeps, metrics, normalization."""

from .batch import BatchEvaluator
from .canon import canonical_dumps, canonical_loads, content_digest
from .checkpoint import (
    Journal,
    JournalReplay,
    merge_journal,
    replay_journal,
    task_key,
)
from .compare import AppDelta, NodeComparison, compare_nodes, geo_mean
from .musa import Musa, RunResult
from .normalize import AxisBar, axis_table, normalize_axis
from .phase_sim import PhaseDetail, simulate_phase_detailed
from .results import CONFIG_KEYS, ResultSet
from .store import ResultStore
from .sweep import (
    FailNTimes,
    InjectedFault,
    SweepAbort,
    TaskTimeout,
    run_sweep,
)

__all__ = [
    "AppDelta",
    "AxisBar",
    "BatchEvaluator",
    "CONFIG_KEYS",
    "FailNTimes",
    "InjectedFault",
    "Journal",
    "JournalReplay",
    "Musa",
    "SweepAbort",
    "TaskTimeout",
    "NodeComparison",
    "PhaseDetail",
    "ResultSet",
    "ResultStore",
    "RunResult",
    "axis_table",
    "canonical_dumps",
    "canonical_loads",
    "compare_nodes",
    "content_digest",
    "geo_mean",
    "merge_journal",
    "normalize_axis",
    "replay_journal",
    "run_sweep",
    "simulate_phase_detailed",
    "task_key",
]
