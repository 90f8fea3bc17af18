"""Runtime-system (OmpSs/OpenMP) scheduling simulator."""

from .openmp import (
    imbalanced_durations,
    parallel_for,
    task_phase,
)
from .hetero import HeteroMix, area_matched_mix, simulate_phase_hetero
from .scheduler import PhaseResult, TaskSpan, simulate_phase
from .stealing import simulate_phase_stealing

__all__ = [
    "HeteroMix",
    "PhaseResult",
    "TaskSpan",
    "area_matched_mix",
    "imbalanced_durations",
    "parallel_for",
    "simulate_phase",
    "simulate_phase_hetero",
    "simulate_phase_stealing",
    "task_phase",
]
