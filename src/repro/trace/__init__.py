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
from .serialize import (
    burst_from_dict,
    burst_to_dict,
    detailed_from_dict,
    detailed_to_dict,
    load_burst,
    load_detailed,
    save_burst,
    save_detailed,
)

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
    "burst_from_dict",
    "burst_to_dict",
    "detailed_from_dict",
    "detailed_to_dict",
    "load_burst",
    "load_detailed",
    "profile_stream",
    "save_burst",
    "save_detailed",
    "stack_distances",
    "synthesize_calibrated",
    "synthesize_stream",
]
