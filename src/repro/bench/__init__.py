"""Always-on benchmark/regression harness with a machine-normalized
trend ledger.

``repro bench`` runs the pinned micro/macro benchmark registry
(:mod:`~repro.bench.registry`), each workload gated by a bit-identity
oracle against its retained scalar path, appends machine-normalized
results to an append-only JSONL trend ledger
(:mod:`~repro.bench.ledger`), fails the regression gate when a
benchmark's normalized cost regresses past a threshold, and renders the
trajectory as a self-contained HTML report
(:mod:`~repro.bench.report`).  See EXPERIMENTS.md for usage and the
ledger format.
"""

from .calibrate import calibration_s, measure_calibration, reference_kernel
from .harness import (
    BenchCase,
    Benchmark,
    BenchResult,
    TIERS,
    code_version,
    host_fingerprint,
    run_case,
    run_suite,
)
from .ledger import (
    Ledger,
    Verdict,
    check,
    make_entry,
    normalized,
)
from .registry import (
    REGISTRY,
    REQUIRED_COUNTERS,
    SMOKE_SPACE,
    get_benchmarks,
)
from .report import build_trend_report

__all__ = [
    "BenchCase",
    "Benchmark",
    "BenchResult",
    "Ledger",
    "REGISTRY",
    "REQUIRED_COUNTERS",
    "SMOKE_SPACE",
    "TIERS",
    "Verdict",
    "build_trend_report",
    "calibration_s",
    "check",
    "code_version",
    "get_benchmarks",
    "host_fingerprint",
    "make_entry",
    "measure_calibration",
    "normalized",
    "reference_kernel",
    "run_case",
    "run_suite",
]
