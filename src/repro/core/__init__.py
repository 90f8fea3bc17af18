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
from .compare import AppDelta, NodeComparison, compare_nodes
from .metrics import (
    energy_delay_product,
    energy_delay_squared,
    geo_mean,
    normalized_energy,
    parallel_efficiency,
    speedup,
)
from .musa import Musa, RunResult
from .normalize import AxisBar, axis_table, normalize_axis
from .phase_sim import PhaseDetail, simulate_phase_detailed
from .results import CONFIG_KEYS, ResultSet
from .store import ResultStore, store_key
from .sweep import (
    FailNTimes,
    InjectedFault,
    SweepAbort,
    TaskTimeout,
    run_sweep,
    sweep_configs,
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
    "energy_delay_product",
    "energy_delay_squared",
    "geo_mean",
    "merge_journal",
    "normalize_axis",
    "normalized_energy",
    "parallel_efficiency",
    "replay_journal",
    "run_sweep",
    "simulate_phase_detailed",
    "speedup",
    "store_key",
    "sweep_configs",
    "task_key",
]
