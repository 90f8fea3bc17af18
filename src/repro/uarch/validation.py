"""End-to-end validation of the analytic pipeline against the
event-level substrates.

The design-space sweep runs entirely on analytic models (stack-distance
caches, closed-form DRAM envelopes).  This module cross-checks one
kernel at a time against the slow, exact machinery:

1. synthesize an address stream from the kernel's reuse profile;
2. replay it through the exact set-associative hierarchy;
3. drive the FR-FCFS DRAM controller with the resulting miss stream;
4. compare miss ratios and sustained bandwidth with the analytic values.

This is the reproduction's stand-in for the paper's own validation
section (TaskSim/Dimemas <10% error, Ramulator validated upstream,
McPAT <20%): the fast path must stay anchored to the detailed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..config.cache import CacheHierarchy
from ..dram.analytic import efficiency as dram_envelope
from ..dram.controller import DramSystem
from ..dram.timing import DramTiming, dram_standard
from ..trace.kernel import KernelSignature
from ..trace.synthesize import synthesize_calibrated
from .cache import CacheHierarchySim

__all__ = ["KernelValidation", "validate_kernel"]


@dataclass(frozen=True)
class KernelValidation:
    """Analytic-vs-exact comparison for one kernel."""

    kernel: str
    # per-level global miss ratios
    analytic_miss: Tuple[float, float, float]
    exact_miss: Tuple[float, float, float]
    # DRAM efficiency (fraction of channel peak) at the miss stream's
    # *measured* row locality: closed-form envelope vs FR-FCFS controller
    analytic_efficiency: Optional[float]
    measured_efficiency: Optional[float]
    #: capacities beyond this are outside the synthesized stream's horizon
    representable_lines: float = 0.0

    @property
    def miss_errors(self) -> Tuple[float, float, float]:
        return tuple(abs(a - e) for a, e
                     in zip(self.analytic_miss, self.exact_miss))

    @property
    def max_miss_error(self) -> float:
        return max(self.miss_errors)

    @property
    def efficiency_error(self) -> Optional[float]:
        if self.measured_efficiency is None or self.analytic_efficiency is None:
            return None
        return abs(self.analytic_efficiency - self.measured_efficiency)

    def passed(self, miss_tol: float = 0.08,
               efficiency_tol: float = 0.25) -> bool:
        """True when the analytic path stays within tolerance."""
        if self.max_miss_error > miss_tol:
            return False
        err = self.efficiency_error
        return err is None or err <= efficiency_tol


def validate_kernel(
    sig: KernelSignature,
    hierarchy: CacheHierarchy,
    l3_share_cores: int = 32,
    n_accesses: int = 60_000,
    dram_timing: Optional[DramTiming] = None,
    seed: int = 0,
) -> KernelValidation:
    """Cross-check one kernel's analytic cache/DRAM behaviour.

    Levels whose capacity exceeds the synthesized stream's representable
    horizon are compared as-folded (both paths see the deep reuse as
    cold), which keeps the comparison apples-to-apples.
    """
    if l3_share_cores <= 0:
        raise ValueError("l3_share_cores must be positive")
    dram_timing = dram_timing or dram_standard("DDR4-2400")

    report = synthesize_calibrated(sig.reuse, n_accesses=n_accesses,
                                   seed=seed)
    # Analytic path — computed from the *measured* profile of the
    # synthesized stream so both sides describe the same traffic.
    measured_profile = report.measured
    analytic = []
    for level, share in ((hierarchy.l1, 1), (hierarchy.l2, 1),
                         (hierarchy.l3, l3_share_cores)):
        lines = max(1.0, level.n_lines / share)
        sets = max(1, level.n_sets // share)
        analytic.append(measured_profile.miss_ratio(
            lines, associativity=level.associativity, n_sets=sets))
    # Enforce inclusion like the hierarchy model does.
    analytic[1] = min(analytic[1], analytic[0])
    analytic[2] = min(analytic[2], analytic[1])

    # Exact path.
    sim = CacheHierarchySim(hierarchy, l3_shards=l3_share_cores)
    miss_lines = sim.miss_lines(report.stream)
    n = len(report.stream)
    exact = (
        sim.l1.stats.miss_ratio,
        sim.l2.stats.misses / n,
        sim.l3.stats.misses / n,
    )
    # Express analytic L2/L3 as global ratios too (they already are).

    measured_eff = None
    envelope_eff = None
    if len(miss_lines) >= 500:
        res = DramSystem(dram_timing, n_channels=1).run(
            miss_lines, write_fraction=sig.mix.store / max(sig.mix.mem, 1e-9))
        measured_eff = res.achieved_bw_gbs / dram_timing.peak_bw_gbs
        envelope_eff = dram_envelope(dram_timing,
                                     res.counts.row_hit_rate())

    return KernelValidation(
        kernel=sig.name,
        analytic_miss=tuple(analytic),
        exact_miss=exact,
        analytic_efficiency=envelope_eff,
        measured_efficiency=measured_eff,
        representable_lines=report.representable_lines,
    )
