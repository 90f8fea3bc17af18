"""Benchmark harness: workloads, timing protocol, identity oracles.

A :class:`Benchmark` is a *pinned* workload — the same trace, design
space and rank count every run — built lazily per tier (``full`` or the
CI-sized ``smoke``).  Building yields a :class:`BenchCase` holding

* ``run`` — the timed callable (warm: expensive one-time setup happens
  in the builder, so samples measure the steady-state hot path);
* ``oracle`` — an *identity* check against the retained scalar path
  (bit-identity, not tolerance), run once after timing;
* ``required_counters`` — :mod:`repro.obs` counters the workload must
  have incremented, so a counter rename cannot quietly blind the
  harness or the dashboards built on it.

The timing protocol is fixed: ``warmup`` untimed runs, then ``repeats``
timed samples; the ledger records the **min** (the gate statistic —
least noise-sensitive) and the **median**.  One reference-kernel sample
is interleaved immediately before each workload sample, so the
calibration sees the *same* contention window as the measurement it
normalizes — on a busy shared host this pairing is what makes the
normalized cost stable (process-start calibration drifts by tens of
percent between invocations; the paired ratio of minima does not).
``inject_slowdown`` multiplies the measured workload samples after the
fact; it exists purely so the regression gate can be exercised
end-to-end (see ``--inject-slowdown`` and the regression-injection
tests) and is recorded in the result.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_metrics
from .calibrate import reference_kernel

__all__ = [
    "Benchmark",
    "BenchCase",
    "BenchResult",
    "TIERS",
    "host_fingerprint",
    "code_version",
    "run_case",
    "run_suite",
]

TIERS = ("full", "smoke")

#: Default timing protocol per (kind, tier): (warmup, repeats).  The
#: gate compares *minima*, which converge to the contention-free floor
#: as repeats grow; smoke workloads are small enough that the extra
#: repeats cost little and buy most of the noise immunity.
_PROTOCOL = {
    ("micro", "full"): (1, 7),
    ("micro", "smoke"): (2, 11),
    ("macro", "full"): (1, 3),
    ("macro", "smoke"): (1, 7),
}


@dataclass
class BenchCase:
    """One built workload: a timed callable plus its identity oracle."""

    run: Callable[[], Any]
    #: Returns ``None`` when the timed path matches the retained scalar
    #: path bit-for-bit, else a human-readable mismatch description.
    oracle: Callable[[], Optional[str]]
    meta: Dict[str, Any] = field(default_factory=dict)
    required_counters: Tuple[str, ...] = ()
    #: Counters whose run-over-run *delta* is recorded into the result's
    #: ``meta["counters"]`` — the ledger keeps them, so a measurement
    #: can prove which driver actually ran (a silent tape bail-out
    #: increments ``replay.batch.driver.scalar``, not ``.array``, and
    #: can no longer masquerade as an array-driver number).
    record_counters: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Benchmark:
    """A registered benchmark: id, kind, and a per-tier case builder."""

    id: str
    kind: str  # "micro" | "macro"
    description: str
    build: Callable[[str], BenchCase]

    def __post_init__(self) -> None:
        if self.kind not in ("micro", "macro"):
            raise ValueError(f"kind must be micro|macro, got {self.kind!r}")
        if not self.id or any(c.isspace() for c in self.id):
            raise ValueError(f"benchmark id must be non-empty, no spaces: "
                             f"{self.id!r}")


@dataclass
class BenchResult:
    """Outcome of one timed benchmark run (pre-ledger)."""

    bench: str
    kind: str
    tier: str
    samples_s: List[float]
    min_s: float
    median_s: float
    oracle_ok: bool
    oracle_detail: Optional[str]
    meta: Dict[str, Any]
    inject_slowdown: float = 1.0
    #: Reference-kernel samples interleaved with the workload samples;
    #: ``calib_min_s`` is the paired calibration the ledger normalizes
    #: against (``None`` only for hand-built results, e.g. in tests).
    calib_samples_s: List[float] = field(default_factory=list)
    calib_min_s: Optional[float] = None


def host_fingerprint() -> Dict[str, Any]:
    """Environment-class identity attached to every ledger entry.

    Deliberately excludes the hostname: two CI runners of the same
    image/class should fingerprint identically so their entries pool
    into one baseline population.
    """
    info = {
        "python": platform.python_version(),
        "impl": platform.python_implementation(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count() or 0,
    }
    digest = hashlib.sha256(
        json.dumps(info, sort_keys=True).encode()).hexdigest()[:12]
    return {"id": digest, **info}


def code_version(root: Optional[Path] = None) -> str:
    """Short git revision of the working tree (or ``unknown``)."""
    env = os.environ.get("REPRO_CODE_VERSION")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root or Path(__file__).resolve().parents[3],
            capture_output=True, text=True, timeout=5)
        if out.returncode == 0:
            return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_case(
    bench: Benchmark,
    tier: str = "full",
    repeats: Optional[int] = None,
    warmup: Optional[int] = None,
    inject_slowdown: float = 1.0,
) -> BenchResult:
    """Build and time one benchmark under the fixed protocol."""
    if tier not in TIERS:
        raise ValueError(f"tier must be one of {TIERS}, got {tier!r}")
    if inject_slowdown <= 0:
        raise ValueError("inject_slowdown must be positive")
    d_warmup, d_repeats = _PROTOCOL[(bench.kind, tier)]
    warmup = d_warmup if warmup is None else warmup
    repeats = d_repeats if repeats is None else repeats
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    obs = get_metrics()
    # Snapshot before build: one-time cold-path counters (tape builds,
    # memoized miss geometries) legitimately increment during setup
    # rather than in the timed steady-state runs.
    counters_before = dict(obs.snapshot()["counters"])
    case = bench.build(tier)
    reference_kernel()  # warm alongside the workload warmups
    for _ in range(warmup):
        case.run()
    samples: List[float] = []
    calib_samples: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        calib_samples.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        case.run()
        samples.append((time.perf_counter() - t0) * inject_slowdown)

    oracle_detail = case.oracle()
    if oracle_detail is None:
        # The harness's own contract: the workload must have exercised
        # the counters it claims to pin, else the instrumentation the
        # trend dashboards rely on has silently gone dark.
        stale = [name for name in case.required_counters
                 if obs.counter(name) <= counters_before.get(name, 0)]
        if stale:
            oracle_detail = (f"required obs counters never incremented: "
                             f"{', '.join(stale)}")
    meta = dict(case.meta)
    if case.record_counters:
        meta["counters"] = {
            name: obs.counter(name) - counters_before.get(name, 0)
            for name in case.record_counters}
    return BenchResult(
        bench=bench.id, kind=bench.kind, tier=tier,
        samples_s=samples, min_s=min(samples),
        median_s=float(statistics.median(samples)),
        oracle_ok=oracle_detail is None, oracle_detail=oracle_detail,
        meta=meta, inject_slowdown=inject_slowdown,
        calib_samples_s=calib_samples, calib_min_s=min(calib_samples),
    )


def run_suite(
    benchmarks: Sequence[Benchmark],
    tier: str = "full",
    repeats: Optional[int] = None,
    warmup: Optional[int] = None,
    inject_slowdown: float = 1.0,
    progress: Optional[Callable[[str, "BenchResult"], None]] = None,
) -> List[BenchResult]:
    """Run every benchmark; never aborts mid-suite on an oracle failure."""
    results: List[BenchResult] = []
    for bench in benchmarks:
        res = run_case(bench, tier=tier, repeats=repeats, warmup=warmup,
                       inject_slowdown=inject_slowdown)
        results.append(res)
        if progress is not None:
            progress(bench.id, res)
    return results
