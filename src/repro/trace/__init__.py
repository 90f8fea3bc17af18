"""Multi-level trace substrate (replaces Extrae + DynamoRIO output)."""

from .burst import BurstTrace, EventColumns, RankTrace
from .detailed import DetailedTrace
from .events import (
    COLLECTIVE_KINDS,
    P2P_KINDS,
    ComputePhase,
    MpiCall,
    TaskRecord,
)
from .kernel import InstructionMix, KernelSignature, ReuseProfile
from .reuse import FenwickTree, profile_stream, stack_distances
from .synthesize import SynthesisReport, synthesize_calibrated, synthesize_stream

__all__ = [
    "COLLECTIVE_KINDS",
    "P2P_KINDS",
    "BurstTrace",
    "ComputePhase",
    "DetailedTrace",
    "EventColumns",
    "FenwickTree",
    "InstructionMix",
    "KernelSignature",
    "MpiCall",
    "RankTrace",
    "ReuseProfile",
    "SynthesisReport",
    "TaskRecord",
    "profile_stream",
    "stack_distances",
    "synthesize_calibrated",
    "synthesize_stream",
]
