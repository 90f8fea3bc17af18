"""Multi-level trace substrate (replaces Extrae + DynamoRIO output)."""

from .burst import BurstTrace, EventColumns
from .detailed import DetailedTrace
from .events import ComputePhase, TaskRecord
from .kernel import InstructionMix, KernelSignature, ReuseProfile
from .reuse import FenwickTree, profile_stream, stack_distances
from .synthesize import SynthesisReport, synthesize_calibrated, synthesize_stream

__all__ = [
    "BurstTrace",
    "ComputePhase",
    "DetailedTrace",
    "EventColumns",
    "FenwickTree",
    "InstructionMix",
    "KernelSignature",
    "ReuseProfile",
    "SynthesisReport",
    "TaskRecord",
    "profile_stream",
    "stack_distances",
    "synthesize_calibrated",
    "synthesize_stream",
]
