"""Closed-form DRAM bandwidth envelopes.

The design-space sweep cannot afford event-level DRAM simulation for
every task of every configuration; it uses these closed forms, which
are derived from the same timing parameters as the event-level
controller and validated against it (``tests/dram/test_analytic.py``).
"""

from __future__ import annotations

from .timing import DramTiming, dram_standard

__all__ = [
    "sustained_bandwidth_gbs",
    "efficiency",
]


def efficiency(timing: DramTiming, row_hit_rate: float) -> float:
    """Sustainable fraction of peak bandwidth at a given row locality.

    A row hit occupies the data bus for the burst only; a row miss
    additionally consumes bank time tRP+tRCD, which with ``n_banks``
    banks pipelining steals ``(tRP+tRCD)/n_banks`` of bus-equivalent
    time per miss (plus a scheduling-inefficiency factor for the
    controller's finite reorder window).
    """
    if not 0.0 <= row_hit_rate <= 1.0:
        raise ValueError("row_hit_rate must be in [0, 1]")
    burst = timing.burst_cycles
    # Effective extra bus-time per row miss: bank overheads amortized over
    # the bank count, padded 20% for finite-window scheduling imperfection.
    miss_overhead = 1.2 * (timing.trp + timing.trcd) / timing.n_banks
    per_req = burst + (1.0 - row_hit_rate) * miss_overhead
    return burst / per_req


def sustained_bandwidth_gbs(timing: DramTiming, n_channels: int,
                            row_hit_rate: float) -> float:
    """Aggregate sustainable bandwidth of ``n_channels`` channels."""
    if n_channels <= 0:
        raise ValueError("n_channels must be positive")
    return n_channels * timing.peak_bw_gbs * efficiency(timing, row_hit_rate)
